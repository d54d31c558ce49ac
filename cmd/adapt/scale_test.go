package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"adapt/internal/testbin"
)

func row(mode, coll string, ranks int, eventsPerSec float64, rssKB int64) scaleRow {
	return scaleRow{
		Name: "Scale" + title(mode) + title(coll), Mode: mode, Collective: coll,
		Ranks: ranks, EventsPerSec: eventsPerSec, RSSKB: rssKB,
	}
}

// TestScaleGates pins the ladder's gates on synthetic rows: a broadcast
// rung at 100k ranks or more must stay under the RSS budget, flat must
// beat proc there on events/s and on RSS, and smaller rungs and other
// collectives are not gated.
func TestScaleGates(t *testing.T) {
	const big = 102400
	for _, c := range []struct {
		name string
		rows []scaleRow
		want string // substring of the error; "" means the gates pass
	}{
		{"flat beats proc", []scaleRow{
			row("proc", "bcast", big, 1e6, 4<<20),
			row("flat", "bcast", big, 2e6, 1<<20),
		}, ""},
		{"rss at budget", []scaleRow{
			row("flat", "bcast", big, 2e6, rssBudgetKB),
		}, "breaks the"},
		{"rss over budget", []scaleRow{
			row("flat", "bcast", 1<<20, 2e6, rssBudgetKB+1),
		}, "breaks the"},
		{"flat slower", []scaleRow{
			row("proc", "bcast", big, 2e6, 4<<20),
			row("flat", "bcast", big, 1e6, 1<<20),
		}, "events/s"},
		{"flat as slow", []scaleRow{
			row("proc", "bcast", big, 2e6, 4<<20),
			row("flat", "bcast", big, 2e6, 1<<20),
		}, "events/s"},
		{"flat larger", []scaleRow{
			row("proc", "bcast", big, 1e6, 1<<20),
			row("flat", "bcast", big, 2e6, 2<<20),
		}, "kB) does not beat proc"},
		{"small rungs ignored", []scaleRow{
			row("proc", "bcast", 10240, 2e6, 1<<20),
			row("flat", "bcast", 10240, 1e6, rssBudgetKB),
		}, ""},
		{"other collectives ignored", []scaleRow{
			row("proc", "reduce", big, 2e6, 1<<20),
			row("flat", "reduce", big, 1e6, rssBudgetKB),
			row("proc", "allreduce", big, 2e6, 1<<20),
			row("flat", "allreduce", big, 1e6, 2<<20),
		}, ""},
	} {
		t.Run(c.name, func(t *testing.T) {
			err := scaleGates(c.rows)
			switch {
			case c.want == "" && err != nil:
				t.Fatalf("gates failed: %v", err)
			case c.want != "" && err == nil:
				t.Fatalf("gates passed, want a failure naming %q", c.want)
			case c.want != "" && !strings.Contains(err.Error(), c.want):
				t.Fatalf("gates failed with %q, want %q", err, c.want)
			}
		})
	}
}

// TestQuickScaleLadder builds adapt and runs the quick ladder (1k and
// 10k ranks, broadcast, both rank drivers), each cell in its own child
// process, under the scaling gates.
func TestQuickScaleLadder(t *testing.T) {
	if testing.Short() {
		t.Skip("process ladder skipped in -short")
	}
	bin := filepath.Join(testbin.Build(t, "."), "adapt")
	out, err := exec.Command(bin, "bench", "-ranks", "1k,10k", "-ranks-coll", "bcast").CombinedOutput()
	if err != nil {
		t.Fatalf("quick ladder failed: %v\n%s", err, out)
	}
	for _, cell := range []string{"proc   bcast            1024", "flat   bcast           10240"} {
		if !strings.Contains(string(out), cell) {
			t.Errorf("ladder output missing row %q:\n%s", cell, out)
		}
	}
}
