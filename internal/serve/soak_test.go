package serve

import (
	"fmt"
	"math/rand"
	goruntime "runtime"
	"sync"
	"testing"
	"time"

	"adapt/internal/faults"
)

// The soak battery: many concurrent sessions stream many requests each
// at a daemon whose backend worlds run under a seeded chaos plan
// (drops, dups, jitter — the recovery machinery retries underneath).
// Every result is verified, every session drains cleanly, and at the
// end the daemon must give back every goroutine it ever started: no
// leaked executors, no stuck sessions, no orphaned fuse timers.
//
// Short mode runs a scaled-down variant so the tier-1 suite exercises
// the same lifecycle; the full shape runs in the default (long) mode
// used by make soak / the CI battery.

func soakShape() (sessions, requests int) {
	if testing.Short() {
		return 8, 6
	}
	return 48, 12
}

func TestSoakSessions(t *testing.T) {
	base := goruntime.NumGoroutine()
	chaos, err := faults.ParsePlan("seed=11; all: drop=0.05, dup=0.05, jitter=20us")
	if err != nil {
		t.Fatalf("chaos plan: %v", err)
	}
	srv, err := New(Config{
		FuseWindow:   200 * time.Microsecond,
		FuseMaxReqs:  8,
		QueueDepth:   256,
		MaxSessions:  256,
		Chaos:        &chaos,
		Recovery:     faults.DefaultRecovery(),
		DrainTimeout: 20 * time.Second,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	nSess, nReq := soakShape()
	worlds := []int{2, 4} // two backend keys, exercised concurrently
	var wg sync.WaitGroup
	errs := make(chan error, nSess)
	for s := 0; s < nSess; s++ {
		s := s
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + s)))
			world := worlds[s%len(worlds)]
			sess, err := Dial(srv.Addr(), SessionOpts{
				World: world, Group: fmt.Sprintf("soak-%d", s%3), ProxyRank: -1,
			})
			if err != nil {
				errs <- fmt.Errorf("session %d dial: %w", s, err)
				return
			}
			defer sess.Close()
			// Pipeline a few calls at a time, verify every result.
			for i := 0; i < nReq; {
				burst := 1 + rng.Intn(4)
				if burst > nReq-i {
					burst = nReq - i
				}
				calls := make([]*Call, burst)
				salts := make([]int, burst)
				elems := 4 << rng.Intn(3) // 4, 8, or 16 per rank
				for b := 0; b < burst; b++ {
					salt := s*1000 + i + b
					c, err := sess.StartAllreduce(contrib(world, elems, salt))
					if err != nil {
						errs <- fmt.Errorf("session %d req %d: %w", s, i+b, err)
						return
					}
					calls[b], salts[b] = c, salt
				}
				for b, c := range calls {
					out, _, err := c.Wait()
					if err != nil {
						errs <- fmt.Errorf("session %d req %d wait: %w", s, i+b, err)
						return
					}
					for e, v := range out {
						if want := wantSum(world, e, salts[b]); v != want {
							errs <- fmt.Errorf("session %d req %d element %d: got %v, want %v",
								s, i+b, e, v, want)
							return
						}
					}
				}
				i += burst
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		srv.Close()
		t.FailNow()
	}

	st := srv.Stats()
	if st.Sessions != uint64(nSess) {
		t.Errorf("accepted %d sessions, want %d", st.Sessions, nSess)
	}
	if want := uint64(nSess * nReq); st.Requests != want {
		t.Errorf("admitted %d requests, want %d", st.Requests, want)
	}

	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Close returns after every session's teardown, so the count is final.
	if got := srv.Stats().SessionsClosed; got != uint64(nSess) {
		t.Errorf("%d sessions fully drained, want %d (stuck sessions at close)", got, nSess)
	}
	// Everything the daemon started — executors, session readers and
	// writers, fuse timers, accept loop — must be gone.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if got := goruntime.NumGoroutine(); got <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:goruntime.Stack(buf, true)]
			t.Fatalf("goroutines leaked after soak drain: %d > baseline %d\n%s",
				goruntime.NumGoroutine(), base, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
