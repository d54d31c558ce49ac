package runtime

import (
	"errors"
	"testing"
	"time"

	"adapt/internal/comm"
	"adapt/internal/faults"
	"adapt/internal/perf"
)

// TestSendToCrashedRankRefused posts two sends to rank 1 after it has
// crashed: the rendezvous announcement must fail its live sender with a
// TimeoutError naming sender, dead peer and tag, and the eager payload
// must be swallowed with its pooled copy returned to the pool.
func TestSendToCrashedRankRefused(t *testing.T) {
	w := NewWorld(2, WithFaults(faults.MustParsePlan("seed=1; crash@1"), faults.DefaultRecovery()),
		WithRunTimeout(10*time.Second))
	rndvTag := comm.MakeTag(comm.KindBcast, 1, 0)
	eagerTag := comm.MakeTag(comm.KindBcast, 1, 1)
	dead := make(chan struct{})
	var rndv comm.Status
	var gets, recycled uint64
	w.Run(func(c *Comm) {
		if c.Rank() == 1 {
			// Goexit at the crash point still runs this: the rank is
			// halted by then.
			defer close(dead)
			c.Isend(0, rndvTag, comm.Bytes(make([]byte, 8)))
			t.Error("rank 1 survived its crash point")
			return
		}
		<-dead
		rndv = c.Wait(c.Isend(1, rndvTag, comm.Bytes(make([]byte, 4*DefaultEagerLimit))))
		before := perf.Read()
		c.Wait(c.Isend(1, eagerTag, comm.Bytes(make([]byte, 64))))
		d := perf.Read().Delta(before)
		gets, recycled = d.BufGets, d.BufRecycled
	})
	var te *faults.TimeoutError
	if !errors.As(rndv.Err, &te) {
		t.Fatalf("rendezvous send to a crashed rank: err %v, want a *faults.TimeoutError", rndv.Err)
	}
	if te.Rank != 0 || te.Peer != 1 || te.Tag != rndvTag {
		t.Errorf("TimeoutError names rank %d -> %d tag %v, want 0 -> 1 tag %v", te.Rank, te.Peer, te.Tag, rndvTag)
	}
	if gets != 1 || recycled != 1 {
		t.Errorf("eager send to a crashed rank: %d pooled copies taken, %d returned; want 1 and 1", gets, recycled)
	}
}
