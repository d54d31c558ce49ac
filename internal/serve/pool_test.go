package serve

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"adapt/internal/perf"
)

// checkSum asserts out is exactly the allreduce of contrib(world, len(out), salt).
func checkSum(t *testing.T, what string, world, elems, salt int, out []float64) {
	t.Helper()
	if len(out) != elems {
		t.Fatalf("%s: %d elements, want %d", what, len(out), elems)
	}
	for e, v := range out {
		if want := wantSum(world, e, salt); v != want {
			t.Fatalf("%s element %d: got %v, want %v", what, e, v, want)
		}
	}
}

// TestServeBufferOwnership: request payloads, fused contribution
// buffers and every wire frame go back to the segment-buffer pool on
// every path — unfused allreduces folding into the request payload,
// fused batches, FT requests and each rejection (proxy-session reduce,
// indivisible length, session in-flight overload, shutdown draining) —
// and no buffer is recycled while a rank still folds into it: every
// result must be exact under -race, and pool Puts must reach 0.9 ×
// Gets over the run.
func TestServeBufferOwnership(t *testing.T) {
	const world = 4
	sizes := []int{16, 8192} // eager and rendezvous per-rank sizes
	before := perf.Read()

	// Unfused daemon: pipelined allreduces of both sizes, FT requests,
	// and the shape and mode rejections.
	plain := newTestServer(t, Config{DrainTimeout: 5 * time.Second})
	sess, err := Dial(plain.Addr(), SessionOpts{World: world, ProxyRank: -1})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer sess.Close()
	for round := 0; round < 5; round++ {
		calls := make([]*Call, 8)
		for i := range calls {
			if calls[i], err = sess.StartAllreduce(contrib(world, sizes[i%2], round*8+i)); err != nil {
				t.Fatalf("StartAllreduce: %v", err)
			}
		}
		for i, c := range calls {
			out, _, err := c.Wait()
			if err != nil {
				t.Fatalf("round %d call %d: %v", round, i, err)
			}
			checkSum(t, fmt.Sprintf("round %d call %d", round, i), world, sizes[i%2], round*8+i, out)
		}
		for _, elems := range sizes {
			out, _, err := sess.ReduceFT(contrib(world, elems, round))
			if err != nil {
				t.Fatalf("round %d FT %d elems: %v", round, elems, err)
			}
			checkSum(t, fmt.Sprintf("round %d FT", round), world, elems, round, out)
			if _, err := sess.Allreduce(make([]float64, world*elems+1)); !errors.Is(err, ErrBadRequest) {
				t.Fatalf("indivisible length: got %v, want typed BadRequest", err)
			}
		}
	}
	proxy, err := Dial(plain.Addr(), SessionOpts{World: world, ProxyRank: 0})
	if err != nil {
		t.Fatalf("Dial proxy: %v", err)
	}
	for _, elems := range sizes {
		if _, err := proxy.Allreduce(contrib(world, elems, 0)); !errors.Is(err, ErrBadRequest) {
			t.Fatalf("proxy-session reduce: got %v, want typed BadRequest", err)
		}
	}
	proxy.Close()

	// Fused daemon: a long window parks a session's requests until its
	// in-flight cap fills, the next requests are refused Overloaded, and
	// the parked ones flush as one fused batch.
	const inflight = 4
	fused := newTestServer(t, Config{
		SessionPending: inflight,
		FuseWindow:     100 * time.Millisecond,
		FuseMaxReqs:    64,
		DrainTimeout:   5 * time.Second,
	})
	fsess, err := Dial(fused.Addr(), SessionOpts{World: world, ProxyRank: -1})
	if err != nil {
		t.Fatalf("Dial fused: %v", err)
	}
	defer fsess.Close()
	for round, elems := range []int{16, 8192, 16, 8192} {
		calls := make([]*Call, inflight)
		for i := range calls {
			if calls[i], err = fsess.StartAllreduce(contrib(world, elems, round*inflight+i)); err != nil {
				t.Fatalf("StartAllreduce: %v", err)
			}
		}
		for i := 0; i < 3; i++ {
			if _, err := fsess.Allreduce(contrib(world, elems, 99)); !errors.Is(err, ErrOverloaded) {
				t.Fatalf("request past the in-flight cap: got %v, want typed Overloaded", err)
			}
		}
		for i, c := range calls {
			out, _, err := c.Wait()
			if err != nil {
				t.Fatalf("fused round %d call %d: %v", round, i, err)
			}
			checkSum(t, fmt.Sprintf("fused round %d call %d", round, i), world, elems, round*inflight+i, out)
		}
	}

	// Shutdown draining: with one request parked in a long fuse window,
	// Server.Close marks the session draining; a request sent then is
	// refused with CodeShutdown and the parked one still completes.
	draining := newTestServer(t, Config{FuseWindow: time.Second, DrainTimeout: 5 * time.Second})
	dsess, err := Dial(draining.Addr(), SessionOpts{World: world, ProxyRank: -1})
	if err != nil {
		t.Fatalf("Dial draining: %v", err)
	}
	defer dsess.Close()
	parked, err := dsess.StartAllreduce(contrib(world, 8192, 7))
	if err != nil {
		t.Fatalf("StartAllreduce parked: %v", err)
	}
	waitSessions(t, draining, "admitted the parked request", func(s *session) bool { return s.pending.Load() == 1 })
	closed := make(chan struct{})
	go func() { draining.Close(); close(closed) }()
	waitSessions(t, draining, "started draining", func(s *session) bool { return s.draining.Load() })
	if _, err := dsess.Allreduce(contrib(world, 8192, 8)); !errors.Is(err, ErrShutdown) {
		t.Fatalf("request to a draining session: got %v, want typed Shutdown", err)
	}
	out, _, err := parked.Wait()
	if err != nil {
		t.Fatalf("parked request across shutdown: %v", err)
	}
	checkSum(t, "parked request", world, 8192, 7, out)
	<-closed

	d := perf.Read().Delta(before)
	t.Logf("pool: %d gets, %d hits, %d puts", d.BufGets, d.BufHits, d.BufPuts)
	if d.BufGets == 0 || float64(d.BufPuts) < 0.9*float64(d.BufGets) {
		t.Errorf("pool puts %d < 0.9 × gets %d: the served path leaks frames or contributions", d.BufPuts, d.BufGets)
	}
	// Every frame and payload is back by now. A request cycles ~10
	// buffers through the pool, so leaking one per request would hide
	// under the ratio alone: bound what is still outstanding too.
	if d.BufGets > d.BufPuts+4 {
		t.Errorf("%d pool buffers still outstanding after every session closed", d.BufGets-d.BufPuts)
	}
}

// waitSessions blocks until srv has live sessions and every one of
// them satisfies cond.
func waitSessions(t *testing.T, srv *Server, what string, cond func(s *session) bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		srv.mu.Lock()
		all := len(srv.sessions) > 0
		for _, s := range srv.sessions {
			all = all && cond(s)
		}
		srv.mu.Unlock()
		if all {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("sessions never %s", what)
}

// TestCallWaitIdempotent: Wait may be called again, and from several
// goroutines at once; every call returns the same outcome, for a
// result and for a typed error alike.
func TestCallWaitIdempotent(t *testing.T) {
	const world, elems = 4, 8192
	srv := newTestServer(t, Config{DrainTimeout: 2 * time.Second})
	sess, err := Dial(srv.Addr(), SessionOpts{World: world, ProxyRank: -1})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer sess.Close()
	ok, err := sess.StartAllreduce(contrib(world, elems, 5))
	if err != nil {
		t.Fatalf("StartAllreduce: %v", err)
	}
	bad, err := sess.StartAllreduce(make([]float64, world*elems+1))
	if err != nil {
		t.Fatalf("StartAllreduce: %v", err)
	}
	for _, c := range []*Call{ok, bad} {
		const waiters = 4
		vals := make([][]float64, waiters+2)
		errs := make([]error, waiters+2)
		var wg sync.WaitGroup
		for g := 0; g < waiters; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				vals[g], _, errs[g] = c.Wait()
			}()
		}
		done := make(chan struct{})
		go func() {
			wg.Wait()
			// And twice more, sequentially, after the outcome is known.
			for g := waiters; g < waiters+2; g++ {
				vals[g], _, errs[g] = c.Wait()
			}
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("a repeated Wait blocked")
		}
		for g := range vals {
			if c == bad {
				if !errors.Is(errs[g], ErrBadRequest) || vals[g] != nil {
					t.Fatalf("wait %d on the rejected call: %v, %d values; want typed BadRequest", g, errs[g], len(vals[g]))
				}
				continue
			}
			if errs[g] != nil {
				t.Fatalf("wait %d: %v", g, errs[g])
			}
			checkSum(t, fmt.Sprintf("wait %d", g), world, elems, 5, vals[g])
		}
	}
}
