//go:build !race && !pooldebug

// Excluded under -race, which instruments allocations, and under
// pooldebug, whose quarantine holds released buffers back from reuse.

package serve

import (
	"runtime"
	"testing"
	"time"

	"adapt/internal/perf"
)

// TestServeAllocsPerRequest bounds the heap bytes one served allreduce
// allocates in steady state, client and daemon together: an in-process
// daemon on the runtime backend, 4 ranks, one warmed-up session. The
// wire path copies each payload only where the protocol needs it and
// draws every frame from the segment-buffer pool, and every rank's
// result lands in its own contribution bytes, so what remains is the
// caller's result slice and small per-request records. A fresh result
// buffer per non-root rank, as core once made, costs ~270 KB per
// 8192-element request; decoding and re-encoding every frame ~1.9 MB.
func TestServeAllocsPerRequest(t *testing.T) {
	const world, reqs = 4, 40
	srv := newTestServer(t, Config{DrainTimeout: 2 * time.Second})
	sess, err := Dial(srv.Addr(), SessionOpts{World: world, ProxyRank: -1})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer sess.Close()
	for _, c := range []struct {
		elems int
		bound uint64 // bytes per request
	}{
		{8192, 96 << 10},
		{16, 9 << 10},
	} {
		vals := contrib(world, c.elems, 1)
		run := func(n int) {
			for i := 0; i < n; i++ {
				out, err := sess.Allreduce(vals)
				if err != nil {
					t.Fatalf("%d elems: Allreduce: %v", c.elems, err)
				}
				for e, v := range out {
					if want := wantSum(world, e, 1); v != want {
						t.Fatalf("%d elems: element %d = %v, want %v", c.elems, e, v, want)
					}
				}
			}
		}
		run(20) // warm the pool, the backend and the scheduler
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		p0 := perf.Read()
		run(reqs)
		p := perf.Read().Delta(p0)
		runtime.ReadMemStats(&m1)
		per := (m1.TotalAlloc - m0.TotalAlloc) / reqs
		t.Logf("%d elems per rank: %d B allocated per request (bound %d); %d GC cycles, %d segment-pool misses",
			c.elems, per, c.bound, m1.NumGC-m0.NumGC, p.BufGets-p.BufHits)
		if per > c.bound {
			t.Errorf("%d elems per rank: %d B allocated per request, bound %d", c.elems, per, c.bound)
		}
	}
}
