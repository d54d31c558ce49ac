package simmpi

import (
	"fmt"
	"strings"
	"testing"

	"adapt/internal/comm"
	"adapt/internal/netmodel"
	"adapt/internal/noise"
	"adapt/internal/sim"
)

// TestRecordReleasedTwicePanics: one release more than a pooled
// record's holders is a bug reported at once, naming the record kind,
// instead of a record pushed onto its free-list twice.
func TestRecordReleasedTwicePanics(t *testing.T) {
	w := NewWorld(sim.New(), netmodel.Cori(1), noise.None)
	msg := comm.Sized(64)
	for _, tc := range []struct {
		kind    string
		release func() func()
	}{
		{"simmpi.xmit", func() func() {
			x := w.newXmit(legEager, 0, 1, comm.Tag(1), 64, msg)
			x.release()
			return x.release
		}},
		{"simmpi.p2p", func() func() {
			x := w.newP2P(0, 1, comm.Tag(1), msg, 1)
			x.finish()
			return x.finish
		}},
	} {
		t.Run(tc.kind, func(t *testing.T) {
			again := tc.release()
			defer func() {
				want := tc.kind + " released twice"
				if p := recover(); p == nil || !strings.Contains(fmt.Sprint(p), want) {
					t.Fatalf("second release: recovered %v, want %q", p, want)
				}
			}()
			again()
		})
	}
}
