package serve

import (
	"errors"
	"net"
	"testing"
	"time"

	"adapt/internal/comm"
	"adapt/internal/faults"
	"adapt/internal/progress"
)

// TestSweepDeadQueuedJobs: jobs queued on a rank whose executor is gone
// are retired by sweepDead. A plain allreduce fails with a typed
// RankFailed error and returns its admission token; proxy sends and
// receives fail onto their bound session; an FT job stays queued on the
// survivors, whose executors run it over the healed tree. The backend is
// assembled without executors, so every job stays where the sweep finds
// it.
func TestSweepDeadQueuedJobs(t *testing.T) {
	srv := newTestServer(t, Config{DrainTimeout: 2 * time.Second})
	const n, dead = 3, 1
	b := &backend{srv: srv, n: n, admit: make(chan struct{}, 4), dead: make([]bool, n),
		proxySess: make([]*session, n)}
	for r := 0; r < n; r++ {
		b.jobCh = append(b.jobCh, make(chan *job, 4))
		b.scheds = append(b.scheds, progress.NewScheduler())
	}
	errs := make(chan error, 2)
	record := func(out []byte, mask []bool, err error) { errs <- err }
	if err := b.submitService(&job{kind: jobAllreduce, deliver: record}); err != nil {
		t.Fatal(err)
	}
	if err := b.submitService(&job{kind: jobReduceFT, deliver: record}); err != nil {
		t.Fatal(err)
	}
	conn, peer := net.Pipe()
	defer peer.Close()
	sess := newSession(srv, 7, conn)
	defer func() { sess.w.Close(); sess.w.Wait(); conn.Close() }()
	sess.pending.Store(2)
	for _, j := range []*job{
		{kind: jobIsend, sess: sess, opID: 11, peer: 0, msg: comm.Bytes(comm.GetBuf(64))},
		{kind: jobIrecv, sess: sess, opID: 12, peer: 2},
	} {
		if err := b.submitProxy(dead, j); err != nil {
			t.Fatal(err)
		}
	}

	b.mu.Lock()
	b.dead[dead] = true
	b.mu.Unlock()
	b.sweepDead(dead)

	select {
	case err := <-errs:
		var re *RequestError
		if !errors.As(err, &re) || re.Code != CodeRankFailed {
			t.Fatalf("queued allreduce: got %v, want a RankFailed RequestError", err)
		}
	default:
		t.Fatal("queued allreduce was not failed")
	}
	select {
	case err := <-errs:
		t.Fatalf("FT job settled by the sweep (%v); it belongs to the survivors", err)
	default:
	}
	if len(b.admit) != 1 {
		t.Errorf("%d admission tokens held, want 1 (the FT job's)", len(b.admit))
	}
	if len(b.jobCh[dead]) != 0 {
		t.Errorf("%d jobs left on the dead rank's queue", len(b.jobCh[dead]))
	}
	for _, r := range []int{0, 2} {
		if q := len(b.jobCh[r]); q != 2 {
			t.Errorf("survivor %d holds %d queued jobs, want the allreduce and FT copies", r, q)
		}
	}
	typs, msgs := readServerFrames(t, peer, 2)
	for i, id := range []uint64{11, 12} {
		m, ok := msgs[i].(errMsg)
		if typs[i] != sfErr || !ok || m.ID != id || m.Code != CodeRankFailed {
			t.Errorf("proxy op %d: got frame %#x %+v, want a RankFailed error frame", id, typs[i], msgs[i])
		}
	}
	if got := sess.pending.Load(); got != 0 {
		t.Errorf("session still counts %d pending proxy ops", got)
	}
}

// TestQueuedFTSettlesAfterCrash: FT requests queued behind the one
// that kills a rank — on the dying rank's executor too, since an armed
// backend runs one FT job at a time — all settle on the survivor set.
func TestQueuedFTSettlesAfterCrash(t *testing.T) {
	if testing.Short() {
		t.Skip("crash churn (live TCP mesh + failure detector) skipped in -short")
	}
	srv := newTestServer(t, Config{
		Backend:      "net",
		Crashes:      []faults.Crash{{Rank: 2, AfterSends: 0}},
		CrashGroup:   "queued",
		DrainTimeout: 10 * time.Second,
	})
	const world, elems, reqs = 4, 16, 3
	sess, err := Dial(srv.Addr(), SessionOpts{World: world, Group: "queued", ProxyRank: -1})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer sess.Close()
	calls := make([]*Call, reqs)
	vals := make([][]float64, reqs)
	for i := range calls {
		vals[i] = contrib(world, elems, i+1)
		if calls[i], err = sess.StartReduceFT(vals[i]); err != nil {
			t.Fatalf("StartReduceFT %d: %v", i, err)
		}
	}
	for i, call := range calls {
		out, mask, err := call.Wait()
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if mask[2] {
			t.Fatalf("request %d: mask %v counts the dead rank", i, mask)
		}
		want := maskSum(vals[i], elems, mask)
		for e, v := range out {
			if v != want[e] {
				t.Fatalf("request %d element %d: got %v, want survivor-set sum %v", i, e, v, want[e])
			}
		}
	}
}
