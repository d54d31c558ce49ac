package nettransport

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"adapt/internal/comm"
	"adapt/internal/core"
	"adapt/internal/faults"
	"adapt/internal/trees"
)

// TestCrashNonRootHeals kills the mid-tree forwarder (rank 2 in Binomial(4,0)); the survivors must finish
// the FT broadcast with identical payloads and agree on the survivor set.
func TestCrashNonRootHeals(t *testing.T) {
	const n, size = 4, 48 * 1024
	w := newTestWorld(t, n, WithCrashes([]faults.Crash{{Rank: 2, AfterSends: 1}}))
	binom := trees.Binomial(n, 0)
	opt := core.Options{SegSize: 8 * 1024}
	src := fill(size, 77)
	outs := make([][]byte, n)
	masks := make([][]bool, n)
	errs := make([]error, n)
	w.Run(func(c *Comm) {
		in := comm.Sized(size)
		if c.Rank() == 0 {
			in = comm.Bytes(append([]byte(nil), src...))
		}
		res := core.BcastFT(c, binom, in, opt)
		errs[c.Rank()] = res.Err
		masks[c.Rank()] = res.Survivors
		if res.Msg.Data != nil {
			outs[c.Rank()] = append([]byte(nil), res.Msg.Data...)
		}
	})
	crashed := w.Crashed()
	if !crashed[2] {
		t.Fatal("rank 2 did not crash")
	}
	for r := 0; r < n; r++ {
		if r == 2 {
			continue
		}
		if errs[r] != nil {
			t.Fatalf("survivor %d: %v", r, errs[r])
		}
		if !bytes.Equal(outs[r], src) {
			t.Errorf("survivor %d: payload diverged", r)
		}
		if masks[r] == nil || masks[r][2] || !masks[r][0] {
			t.Errorf("survivor %d: mask %v", r, masks[r])
		}
	}
}

// TestCrashDeadRootStructuredError kills the root before it sends
// anything: every survivor must return a structured RankFailedError —
// no hang, no panic.
func TestCrashDeadRootStructuredError(t *testing.T) {
	const n, size = 4, 16 * 1024
	w := newTestWorld(t, n, WithCrashes([]faults.Crash{{Rank: 0, AfterSends: 0}}))
	binom := trees.Binomial(n, 0)
	opt := core.Options{SegSize: 8 * 1024}
	errs := make([]error, n)
	w.Run(func(c *Comm) {
		in := comm.Sized(size)
		if c.Rank() == 0 {
			in = comm.Bytes(fill(size, 5))
		}
		res := core.BcastFT(c, binom, in, opt)
		errs[c.Rank()] = res.Err
	})
	if !w.Crashed()[0] {
		t.Fatal("root did not crash")
	}
	for r := 1; r < n; r++ {
		var rf *faults.RankFailedError
		if !errors.As(errs[r], &rf) {
			t.Fatalf("survivor %d: got %v, want *faults.RankFailedError", r, errs[r])
		}
		if rf.Rank != 0 || rf.Kind != comm.KindBcast {
			t.Errorf("survivor %d: structured error names rank %d kind %v", r, rf.Rank, rf.Kind)
		}
	}
}

// TestCrashFailsPendingRendezvous: a live sender parked in a rendezvous
// handshake with a crashing peer must fail with a structured
// TimeoutError, not hang.
func TestCrashFailsPendingRendezvous(t *testing.T) {
	const n = 2
	// Rank 1 dies on its first send initiation; rank 0's rendezvous send
	// to it is already announced and waiting for a grant that never comes.
	w := newTestWorld(t, n, WithCrashes([]faults.Crash{{Rank: 1, AfterSends: 0}}))
	tag := comm.MakeTag(comm.KindP2P, 1, 0)
	w.Run(func(c *Comm) {
		switch c.Rank() {
		case 0:
			st := c.Wait(c.Isend(1, tag, comm.Bytes(fill(DefaultEagerLimit*2, 1))))
			var te *faults.TimeoutError
			if !errors.As(st.Err, &te) {
				t.Errorf("rendezvous to dead peer: got %v, want *faults.TimeoutError", st.Err)
			}
		case 1:
			// Crash point: this Isend initiation kills the rank before any
			// frame leaves. Rank 0's RTS is never granted.
			c.Isend(0, tag, comm.Bytes([]byte{1}))
			t.Error("rank 1 survived its crash point")
		}
	})
	if !w.Crashed()[1] {
		t.Fatal("rank 1 did not crash")
	}
}

// TestCrashFailsMatchedPull: a receive that matches a rendezvous
// announcement after its sender was lost, but before the death is
// confirmed, must fail at once with a structured TimeoutError naming
// the receiver, the dead peer and the tag — the grant would go nowhere
// and no payload will ever stream. The confirmation lease is stretched
// past the test so the receive is certain to land in that window.
func TestCrashFailsMatchedPull(t *testing.T) {
	const n = 2
	tag := comm.MakeTag(comm.KindP2P, 1, 0)
	longLease := func(c *config) { c.rec.ConfirmAfter = time.Hour }
	w := newTestWorld(t, n, WithCrashes([]faults.Crash{{Rank: 1, AfterSends: 1}}), longLease)
	announced := make(chan struct{})
	w.Run(func(c *Comm) {
		switch c.Rank() {
		case 0:
			c.Probe(1, tag) // the announcement is parked here
			close(announced)
			for !c.crash.Down(1) {
				time.Sleep(100 * time.Microsecond)
			}
			if c.crash.Confirmed(1) {
				t.Fatal("death confirmed inside an hour-long lease")
			}
			st := c.Wait(c.Irecv(1, tag))
			var te *faults.TimeoutError
			if !errors.As(st.Err, &te) {
				t.Fatalf("pull from a lost sender: got %v, want *faults.TimeoutError", st.Err)
			}
			if te.Rank != 0 || te.Peer != 1 || te.Tag != tag {
				t.Errorf("error names rank %d, peer %d, tag %v; want 0, 1, %v", te.Rank, te.Peer, te.Tag, tag)
			}
		case 1:
			c.Isend(0, tag, comm.Bytes(fill(DefaultEagerLimit*2, 3))) // announced, never granted
			<-announced
			c.Isend(0, tag, comm.Bytes([]byte{1})) // crash point
			t.Error("rank 1 survived its crash point")
		}
	})
}
