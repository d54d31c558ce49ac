package simmpi

import (
	"bytes"
	"errors"
	"testing"

	"adapt/internal/comm"
	"adapt/internal/faults"
	"adapt/internal/netmodel"
	"adapt/internal/noise"
	"adapt/internal/sim"
)

// runChaos spins up a 2-node world with the plan installed.
func runChaos(t *testing.T, plan string, rec faults.Recovery, body func(c *Comm)) (*World, error) {
	t.Helper()
	k := sim.New()
	w := NewWorld(k, netmodel.Cori(2), noise.None)
	w.InstallFaults(faults.MustParsePlan(plan), rec)
	w.Spawn(body)
	_, err := k.Run()
	if err == nil {
		requireDrained(t, w)
	}
	return w, err
}

// requireDrained fails the test unless every pooled chaos-path record of
// a drained, crash-free world is back on its free-list: a leftover means
// a reference was never dropped, a negative count a double release.
func requireDrained(t *testing.T, w *World) {
	t.Helper()
	if xmits, wires, groups := w.Outstanding(); xmits != 0 || wires != 0 || groups != 0 {
		t.Errorf("pooled records outstanding after drain: %d xmit, %d wire, %d FEC group", xmits, wires, groups)
	}
}

func TestChaosEagerRecoversFromDrops(t *testing.T) {
	payload := []byte("survives a lossy link")
	var got []byte
	w, err := runChaos(t, "seed=9; all: drop=0.4", faults.DefaultRecovery(), func(c *Comm) {
		switch c.Rank() {
		case 0:
			for i := 0; i < 20; i++ {
				c.Send(1, tag(i), comm.Bytes(payload))
			}
		case 1:
			for i := 0; i < 20; i++ {
				st := c.Recv(0, tag(i))
				if !bytes.Equal(st.Msg.Data, payload) {
					t.Errorf("segment %d corrupted: %q", i, st.Msg.Data)
				}
				got = st.Msg.Data
			}
		}
	})
	if err != nil {
		t.Fatalf("simulation failed: %v", err)
	}
	if got == nil {
		t.Fatal("nothing received")
	}
	st := w.FaultStats()
	if st.Drops == 0 || st.Retries == 0 {
		t.Fatalf("40%% drop plan injected nothing: %v", st)
	}
	if len(w.Failures()) != 0 {
		t.Fatalf("unrecovered loss under DefaultRecovery: %v", w.Failures()[0])
	}
}

func TestChaosRendezvousRecoversFromDrops(t *testing.T) {
	// 1 MB forces RTS/CTS/data, each leg reliable on its own.
	w, err := runChaos(t, "seed=4; all: drop=0.3", faults.DefaultRecovery(), func(c *Comm) {
		switch c.Rank() {
		case 0:
			c.Send(1, tag(0), comm.Sized(1*netmodel.MB))
		case 1:
			st := c.Recv(0, tag(0))
			if st.Msg.Size != 1*netmodel.MB {
				t.Errorf("received %d bytes", st.Msg.Size)
			}
			if st.Err != nil {
				t.Errorf("receive completed with error: %v", st.Err)
			}
		}
	})
	if err != nil {
		t.Fatalf("simulation failed: %v", err)
	}
	if w.FaultStats().Drops == 0 {
		t.Fatal("30% drop plan never dropped")
	}
}

func TestChaosDuplicatesSuppressed(t *testing.T) {
	payload := []byte("exactly once")
	received := 0
	w, err := runChaos(t, "seed=2; all: dup=1", faults.DefaultRecovery(), func(c *Comm) {
		switch c.Rank() {
		case 0:
			for i := 0; i < 10; i++ {
				c.Send(1, tag(i), comm.Bytes(payload))
			}
		case 1:
			for i := 0; i < 10; i++ {
				st := c.Recv(0, tag(i))
				if !bytes.Equal(st.Msg.Data, payload) {
					t.Errorf("segment %d corrupted", i)
				}
				received++
			}
			// A duplicate that slipped past dedup would sit in the
			// unexpected queue and match this wildcard probe.
			if _, leaked := c.Iprobe(comm.AnySource, comm.AnyTag); leaked {
				t.Error("duplicate copy leaked into the unexpected queue")
			}
		}
	})
	if err != nil {
		t.Fatalf("simulation failed: %v", err)
	}
	if received != 10 {
		t.Fatalf("received %d of 10", received)
	}
	st := w.FaultStats()
	if st.Dups == 0 || st.Suppressed == 0 {
		t.Fatalf("dup=1 plan: %v", st)
	}
}

func TestChaosEagerSendFailsStructured(t *testing.T) {
	var sendStatus comm.Status
	w, err := runChaos(t, "seed=1; link 0->1: drop=1", faults.NoRecovery(), func(c *Comm) {
		if c.Rank() == 0 {
			sendStatus = c.Wait(c.Isend(1, tag(7), comm.Bytes([]byte("into the void"))))
		}
	})
	if err != nil {
		t.Fatalf("simulation failed: %v", err)
	}
	if sendStatus.Err == nil {
		t.Fatal("black-holed send completed without error")
	}
	var te *faults.TimeoutError
	if !errors.As(sendStatus.Err, &te) {
		t.Fatalf("error is %T, want *faults.TimeoutError", sendStatus.Err)
	}
	if te.Rank != 0 || te.Peer != 1 || te.Tag != tag(7) || te.Attempts != 1 {
		t.Fatalf("timeout error misdescribes the loss: %+v", te)
	}
	if len(w.Failures()) != 1 {
		t.Fatalf("world records %d failures, want 1", len(w.Failures()))
	}
}

// TestChaosFailedReceiveNamesSourceAndTag: a rendezvous whose grant
// (CTS) cannot cross the reverse link fails the matched receive, and that
// failure status names the sender and the tag like a delivered one — the
// collectives' receive handlers decode child and segment from it.
func TestChaosFailedReceiveNamesSourceAndTag(t *testing.T) {
	var recv, send comm.Status
	_, err := runChaos(t, "seed=1; link 1->0: drop=1", faults.NoRecovery(), func(c *Comm) {
		switch c.Rank() {
		case 0:
			send = c.Wait(c.Isend(1, tag(9), comm.Sized(1<<20)))
		case 1:
			recv = c.Wait(c.Irecv(0, tag(9)))
		}
	})
	if err != nil {
		t.Fatalf("simulation failed: %v", err)
	}
	if send.Err == nil {
		t.Error("send over a dead reverse link completed without error")
	}
	var te *faults.TimeoutError
	if !errors.As(recv.Err, &te) || recv.Source != 0 || recv.Tag != tag(9) {
		t.Fatalf("failed receive status: source %d tag %v err %v, want source 0 tag %v and a TimeoutError",
			recv.Source, recv.Tag, recv.Err, tag(9))
	}
}

// A lost ack must trigger retransmission, and the retransmitted copy must
// be absorbed by dedup — the sender can time out even though the payload
// arrived, but with retries enabled it must eventually see an ack.
func TestChaosAckLossCausesSpuriousRetransmit(t *testing.T) {
	w, err := runChaos(t, "seed=14; link 1->0: drop=0.6", faults.DefaultRecovery(), func(c *Comm) {
		// Faults only on the 1→0 reverse link: data 0→1 is clean, acks are
		// lossy.
		switch c.Rank() {
		case 0:
			for i := 0; i < 30; i++ {
				c.Send(1, tag(i), comm.Bytes([]byte("payload")))
			}
		case 1:
			for i := 0; i < 30; i++ {
				c.Recv(0, tag(i))
			}
		}
	})
	if err != nil {
		t.Fatalf("simulation failed: %v", err)
	}
	st := w.FaultStats()
	if st.Retries == 0 || st.Suppressed == 0 {
		t.Fatalf("lossy ack link produced no spurious retransmits: %v", st)
	}
	if len(w.Failures()) != 0 {
		t.Fatalf("ack loss escalated to failure: %v", w.Failures()[0])
	}
}

func TestChaosSsendRecovers(t *testing.T) {
	_, err := runChaos(t, "seed=6; all: drop=0.3, dup=0.2", faults.DefaultRecovery(), func(c *Comm) {
		switch c.Rank() {
		case 0:
			c.Ssend(1, tag(0), comm.Bytes([]byte("sync")))
		case 1:
			st := c.Recv(0, tag(0))
			if string(st.Msg.Data) != "sync" {
				t.Errorf("got %q", st.Msg.Data)
			}
		}
	})
	if err != nil {
		t.Fatalf("simulation failed: %v", err)
	}
}

// The no-fault engine must be untouched when a plan is installed but
// cannot inject anything (Enabled() == false is the caller's check; an
// all-zero rule plan still routes through chaos paths and must behave
// identically).
func TestChaosNoopPlanDeliversIdentically(t *testing.T) {
	payload := []byte("unchanged")
	w, err := runChaos(t, "seed=0; all: drop=0", faults.DefaultRecovery(), func(c *Comm) {
		switch c.Rank() {
		case 0:
			c.Send(1, tag(0), comm.Bytes(payload))
		case 1:
			st := c.Recv(0, tag(0))
			if !bytes.Equal(st.Msg.Data, payload) {
				t.Errorf("got %q", st.Msg.Data)
			}
		}
	})
	if err != nil {
		t.Fatalf("simulation failed: %v", err)
	}
	if st := w.FaultStats(); st.Total() != 0 {
		t.Fatalf("no-op plan injected: %v", st)
	}
}
