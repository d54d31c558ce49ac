package simmpi

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"adapt/internal/comm"
	"adapt/internal/faults"
	"adapt/internal/fec"
	"adapt/internal/netmodel"
	"adapt/internal/noise"
	"adapt/internal/sim"
)

// runFec spins up a 2-node world with the plan and FEC config installed.
func runFec(t *testing.T, plan string, rec faults.Recovery, cfg fec.Config, body func(c *Comm)) *World {
	t.Helper()
	k := sim.New()
	w := NewWorld(k, netmodel.Cori(2), noise.None)
	w.InstallFaults(faults.MustParsePlan(plan), rec)
	w.EnableFEC(cfg)
	w.Spawn(body)
	if _, err := k.Run(); err != nil {
		t.Fatalf("simulation failed: %v", err)
	}
	requireDrained(t, w)
	return w
}

// generousRec gives the repair path lots of headroom before the first
// retransmit timer fires: the group flush runs at RTO/4, so parity plus
// the repair-ack resolve well inside one RTO.
func generousRec() faults.Recovery {
	return faults.Recovery{RTO: 10 * time.Millisecond}.Normalized()
}

// fecPayload gives each segment distinct bytes so a mis-reconstruction
// cannot masquerade as a clean delivery.
func fecPayload(i int) []byte {
	b := make([]byte, 64+i%7)
	for j := range b {
		b[j] = byte(i*31 + j)
	}
	return b
}

// The tentpole claim: on a forward-lossy link, every loss that stays
// within the group's parity is repaired by reconstruction — bit-exact
// payloads, zero retransmissions. Scanned across seeds both for the
// invariant (no group lost ⇒ no retries) and for at least one seed that
// actually exercised the repair path.
func TestFECZeroRetransmitWithinParity(t *testing.T) {
	for _, tc := range []struct {
		name, plan string
	}{
		// Forward-only loss: rank-/all-scoped plans would hit acks too and
		// trigger spurious retransmits FEC cannot (and must not) prevent.
		{"drop", "seed=%d; link 0->1: drop=0.12"},
		// A corrupt copy flies, fails its checksum on arrival, and is a
		// detected loss — reconstruction covers it identically.
		{"corrupt", "seed=%d; link 0->1: corrupt=0.12"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			exercised := false
			for seed := 1; seed <= 30; seed++ {
				plan := fmt.Sprintf(tc.plan, seed)
				w := runFec(t, plan, generousRec(), fec.Config{K: 4, M: 2}, func(c *Comm) {
					switch c.Rank() {
					case 0:
						for i := 0; i < 40; i++ {
							c.Send(1, tag(i), comm.Bytes(fecPayload(i)))
						}
					case 1:
						for i := 0; i < 40; i++ {
							st := c.Recv(0, tag(i))
							if !bytes.Equal(st.Msg.Data, fecPayload(i)) {
								t.Errorf("seed %d segment %d corrupted: %q", seed, i, st.Msg.Data)
							}
						}
					}
				})
				st, fs := w.FaultStats(), w.FECStats()
				if fs.GroupsLost == 0 && st.Retries != 0 {
					t.Fatalf("seed %d: %d retries with every group repaired (faults %v, fec %+v)",
						seed, st.Retries, st, fs)
				}
				if len(w.Failures()) != 0 {
					t.Fatalf("seed %d: unrecovered loss: %v", seed, w.Failures()[0])
				}
				if st.Drops+st.Corrupts > 0 && fs.Reconstructed > 0 && st.Retries == 0 {
					exercised = true
				}
			}
			if !exercised {
				t.Fatal("no seed exercised the zero-retransmit repair path")
			}
		})
	}
}

// Loss beyond the parity budget must fall back to the ARQ machinery the
// FEC layer shadows: the retransmit timers were armed all along, so the
// stream still completes — it just pays the round trips.
func TestFECLossBeyondParityFallsBackToARQ(t *testing.T) {
	received := 0
	w := runFec(t, "seed=3; link 0->1: drop=0.7", generousRec(), fec.Config{K: 4, M: 1}, func(c *Comm) {
		switch c.Rank() {
		case 0:
			for i := 0; i < 20; i++ {
				c.Send(1, tag(i), comm.Bytes(fecPayload(i)))
			}
		case 1:
			for i := 0; i < 20; i++ {
				st := c.Recv(0, tag(i))
				if !bytes.Equal(st.Msg.Data, fecPayload(i)) {
					t.Errorf("segment %d corrupted", i)
				}
				received++
			}
		}
	})
	if received != 20 {
		t.Fatalf("received %d of 20", received)
	}
	st, fs := w.FaultStats(), w.FECStats()
	if fs.GroupsLost == 0 {
		t.Fatalf("70%% drop with m=1 never outran the parity: %+v", fs)
	}
	if st.Retries == 0 {
		t.Fatalf("lost groups never retransmitted: faults %v, fec %+v", st, fs)
	}
	if len(w.Failures()) != 0 {
		t.Fatalf("ARQ backstop failed to recover: %v", w.Failures()[0])
	}
}

// Past the attempt budget the structured-failure path must survive FEC:
// a black-holed link with no retries reports a *faults.TimeoutError.
func TestFECExhaustedAttemptsFailStructured(t *testing.T) {
	var sendStatus comm.Status
	w := runFec(t, "seed=1; link 0->1: drop=1", faults.NoRecovery(), fec.Config{K: 2, M: 1}, func(c *Comm) {
		if c.Rank() == 0 {
			r1 := c.Isend(1, tag(0), comm.Bytes(fecPayload(0)))
			r2 := c.Isend(1, tag(1), comm.Bytes(fecPayload(1)))
			sendStatus = c.Wait(r1)
			c.Wait(r2)
		}
	})
	if sendStatus.Err == nil {
		t.Fatal("black-holed send completed without error")
	}
	if fs := w.FECStats(); fs.GroupsLost == 0 {
		t.Fatalf("total loss never recorded a lost group: %+v", fs)
	}
	if len(w.Failures()) == 0 {
		t.Fatal("no structured failures recorded")
	}
}

// Elided payloads (Sized messages carry no bytes) still enroll in
// groups — their shards are empty — and losses still repair: the
// reconstruction path must re-deliver the zero-byte envelope.
func TestFECElidedPayloads(t *testing.T) {
	const n = 24
	received := 0
	w := runFec(t, "seed=8; link 0->1: drop=0.25", generousRec(), fec.Config{K: 4, M: 2}, func(c *Comm) {
		switch c.Rank() {
		case 0:
			for i := 0; i < n; i++ {
				c.Send(1, tag(i), comm.Sized(256))
			}
		case 1:
			for i := 0; i < n; i++ {
				st := c.Recv(0, tag(i))
				if st.Msg.Size != 256 {
					t.Errorf("segment %d size %d", i, st.Msg.Size)
				}
				received++
			}
		}
	})
	if received != n {
		t.Fatalf("received %d of %d", received, n)
	}
	if len(w.Failures()) != 0 {
		t.Fatalf("unrecovered loss: %v", w.Failures()[0])
	}
}

// Duplicated wire copies must stay invisible under FEC: dedup absorbs
// the extras and the framer never double-enrolls.
func TestFECWithDuplication(t *testing.T) {
	w := runFec(t, "seed=5; link 0->1: drop=0.2, dup=0.5", generousRec(), fec.Config{K: 4, M: 2}, func(c *Comm) {
		switch c.Rank() {
		case 0:
			for i := 0; i < 30; i++ {
				c.Send(1, tag(i), comm.Bytes(fecPayload(i)))
			}
		case 1:
			for i := 0; i < 30; i++ {
				st := c.Recv(0, tag(i))
				if !bytes.Equal(st.Msg.Data, fecPayload(i)) {
					t.Errorf("segment %d corrupted", i)
				}
			}
			if _, leaked := c.Iprobe(comm.AnySource, comm.AnyTag); leaked {
				t.Error("duplicate copy leaked into the unexpected queue")
			}
		}
	})
	if w.FaultStats().Dups == 0 {
		t.Fatal("dup rule never fired")
	}
	if len(w.Failures()) != 0 {
		t.Fatalf("unrecovered loss: %v", w.Failures()[0])
	}
}
