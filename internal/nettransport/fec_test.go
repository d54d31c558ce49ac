package nettransport

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"adapt/internal/comm"
	"adapt/internal/faults"
	"adapt/internal/fec"
)

func ptag(i int) comm.Tag { return comm.MakeTag(comm.KindP2P, 0, i) }

// netRec tunes the group-resend backstop for real loopback TCP: the ack
// must comfortably beat the first timer on a loaded CI host.
func netRec() faults.Recovery {
	return faults.Recovery{RTO: 100 * time.Millisecond, MaxAttempts: 10}.Normalized()
}

func netPayload(i int) []byte {
	b := make([]byte, 56+i%9)
	for j := range b {
		b[j] = byte(i*13 + j)
	}
	return b
}

func fecWorld(t *testing.T, plan string, rec faults.Recovery, cfg fec.Config) *LocalWorld {
	t.Helper()
	w, err := NewLocalWorld(2, WithChaos(faults.MustParsePlan(plan), rec), WithFEC(cfg))
	if err != nil {
		t.Fatalf("world: %v", err)
	}
	return w.WithRunTimeout(30 * time.Second)
}

// Within-parity losses on the socket transport repair with zero
// retransmissions: the receiver reconstructs from parity and its ack
// beats the sender's group-resend timer. Drop and corrupt rules are
// equivalent detected losses (corrupt frames actually fly and die at
// the CRC).
func TestNetFECZeroRetransmitWithinParity(t *testing.T) {
	for _, tc := range []struct {
		name, plan string
	}{
		{"drop", "seed=%d; link 0->1: drop=0.12"},
		{"corrupt", "seed=%d; link 0->1: corrupt=0.12"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			exercised := false
			for seed := 1; seed <= 8; seed++ {
				plan := fmt.Sprintf(tc.plan, seed)
				w := fecWorld(t, plan, netRec(), fec.Config{K: 4, M: 2})
				var mu sync.Mutex
				received := 0
				w.Run(func(c *Comm) {
					switch c.Rank() {
					case 0:
						for i := 0; i < 32; i++ {
							c.Send(1, ptag(i), comm.Bytes(netPayload(i)))
						}
					case 1:
						for i := 0; i < 32; i++ {
							st := c.Recv(0, ptag(i))
							if st.Err != nil {
								t.Errorf("seed %d segment %d failed: %v", seed, i, st.Err)
								continue
							}
							if !bytes.Equal(st.Msg.Data, netPayload(i)) {
								t.Errorf("seed %d segment %d corrupted", seed, i)
							}
							mu.Lock()
							received++
							mu.Unlock()
						}
					}
				})
				st, fs := w.FaultStats(), w.FECStats()
				w.Close()
				if received != 32 {
					t.Fatalf("seed %d: received %d of 32", seed, received)
				}
				if fs.GroupsLost == 0 && st.Retries != 0 {
					t.Fatalf("seed %d: %d retries with every group repaired (faults %v, fec %+v)",
						seed, st.Retries, st, fs)
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

// Loss beyond the parity budget falls back to the sender's group-resend
// timer: the stream still completes, paying retransmit round trips, and
// the lost-group counter shows the ARQ path ran.
func TestNetFECLossBeyondParityFallsBackToResend(t *testing.T) {
	w := fecWorld(t, "seed=4; link 0->1: drop=0.7",
		faults.Recovery{RTO: 30 * time.Millisecond, MaxAttempts: 12}.Normalized(),
		fec.Config{K: 4, M: 1})
	defer w.Close()
	var mu sync.Mutex
	received := 0
	w.Run(func(c *Comm) {
		switch c.Rank() {
		case 0:
			for i := 0; i < 16; i++ {
				c.Send(1, ptag(i), comm.Bytes(netPayload(i)))
			}
		case 1:
			for i := 0; i < 16; i++ {
				st := c.Recv(0, ptag(i))
				if st.Err != nil {
					t.Errorf("segment %d failed: %v", i, st.Err)
					continue
				}
				if !bytes.Equal(st.Msg.Data, netPayload(i)) {
					t.Errorf("segment %d corrupted", i)
				}
				mu.Lock()
				received++
				mu.Unlock()
			}
		}
	})
	if received != 16 {
		t.Fatalf("received %d of 16", received)
	}
	st, fs := w.FaultStats(), w.FECStats()
	if fs.GroupsLost == 0 {
		t.Fatalf("70%% drop with m=1 never outran the parity: %+v", fs)
	}
	if st.Retries == 0 {
		t.Fatalf("lost groups never resent: faults %v, fec %+v", st, fs)
	}
}

// A black-holed link exhausts the resend budget: the sender tombstones
// the group and the receiver's matched recv fails with the structured
// *faults.TimeoutError — no hang, no silent loss.
func TestNetFECExhaustedAttemptsFailStructured(t *testing.T) {
	w := fecWorld(t, "seed=1; link 0->1: drop=1",
		faults.Recovery{RTO: 5 * time.Millisecond, MaxAttempts: 3}.Normalized(),
		fec.Config{K: 2, M: 1})
	defer w.Close()
	var recvErr error
	w.Run(func(c *Comm) {
		switch c.Rank() {
		case 0:
			c.Send(1, ptag(0), comm.Bytes(netPayload(0)))
			c.Send(1, ptag(1), comm.Bytes(netPayload(1)))
		case 1:
			st := c.Recv(0, ptag(0))
			recvErr = st.Err
			c.Recv(0, ptag(1))
		}
	})
	if recvErr == nil {
		t.Fatal("black-holed stream delivered (or hung) instead of failing")
	}
	var te *faults.TimeoutError
	if !errors.As(recvErr, &te) {
		t.Fatalf("error is %T, want *faults.TimeoutError", recvErr)
	}
	if te.Rank != 0 || te.Peer != 1 || te.Tag != ptag(0) {
		t.Fatalf("timeout misdescribes the loss: %+v", te)
	}
	if fs := w.FECStats(); fs.GroupsLost == 0 {
		t.Fatalf("total loss never recorded a lost group: %+v", fs)
	}
}

// Duplicated frames (dup verdicts and whole-group resends) must be
// invisible: the per-sender xid set suppresses second copies.
func TestNetFECDuplicatesSuppressed(t *testing.T) {
	w := fecWorld(t, "seed=7; link 0->1: drop=0.2, dup=0.4", netRec(),
		fec.Config{K: 4, M: 2})
	defer w.Close()
	w.Run(func(c *Comm) {
		switch c.Rank() {
		case 0:
			for i := 0; i < 24; i++ {
				c.Send(1, ptag(i), comm.Bytes(netPayload(i)))
			}
		case 1:
			for i := 0; i < 24; i++ {
				st := c.Recv(0, ptag(i))
				if st.Err != nil {
					t.Errorf("segment %d failed: %v", i, st.Err)
					continue
				}
				if !bytes.Equal(st.Msg.Data, netPayload(i)) {
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
}

// Elided payloads (Sized messages) group, repair, and deliver with their
// logical size intact.
func TestNetFECElidedPayloads(t *testing.T) {
	w := fecWorld(t, "seed=9; link 0->1: drop=0.25", netRec(), fec.Config{K: 4, M: 2})
	defer w.Close()
	var mu sync.Mutex
	received := 0
	w.Run(func(c *Comm) {
		switch c.Rank() {
		case 0:
			for i := 0; i < 20; i++ {
				c.Send(1, ptag(i), comm.Sized(512))
			}
		case 1:
			for i := 0; i < 20; i++ {
				st := c.Recv(0, ptag(i))
				if st.Err != nil {
					t.Errorf("segment %d failed: %v", i, st.Err)
					continue
				}
				if st.Msg.Size != 512 || st.Msg.Data != nil {
					t.Errorf("segment %d: size %d data %v", i, st.Msg.Size, st.Msg.Data != nil)
				}
				mu.Lock()
				received++
				mu.Unlock()
			}
		}
	})
	if received != 20 {
		t.Fatalf("received %d of 20", received)
	}
}

// Resolved FEC groups go back to the sender's framer for reuse: after a
// stream of eager sends has been acknowledged and the groups' idle
// flushes have fired, the framer holds no group beyond the one link's
// open group. (A framer that is never handed its groups back counts
// every group it ever opened, one per K members.)
func TestNetFECGroupsRecycle(t *testing.T) {
	const sends = 64
	w := fecWorld(t, "seed=3; link 0->1: drop=0.01", netRec(), fec.Config{K: 4, M: 1})
	defer w.Close()
	w.Run(func(c *Comm) {
		switch c.Rank() {
		case 0:
			for i := 0; i < sends; i++ {
				c.Send(1, ptag(i), comm.Bytes(netPayload(i)))
			}
		case 1:
			for i := 0; i < sends; i++ {
				if st := c.Recv(0, ptag(i)); st.Err != nil {
					t.Errorf("segment %d failed: %v", i, st.Err)
				}
			}
		}
	})
	f := w.Rank(0).fecTx
	// Acks and idle flushes land on their own goroutines; wait for them.
	deadline := time.Now().Add(10 * time.Second)
	for {
		f.mu.Lock()
		unacked := len(f.sent)
		f.mu.Unlock()
		out := f.framer.Outstanding()
		if unacked == 0 && out <= 1 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d groups outstanding at the framer (%d unacked) after %d sends, want at most 1 (the open group)",
				out, unacked, sends)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
