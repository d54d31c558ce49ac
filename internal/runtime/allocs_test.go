//go:build !race

package runtime_test

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"adapt/internal/comm"
	"adapt/internal/core"
	"adapt/internal/runtime"
	"adapt/internal/trees"
)

// TestLiveAllreduceAllocs bounds the heap allocations of one steady-state
// allreduce on a 4-rank live runtime world — the rank goroutines, the
// collective's state, requests and envelopes — after warm-up runs have
// filled the segment pool. Eager (16 float64) and rendezvous (8192
// float64) sizes both measure 45 allocations on go1.24/amd64, of which
// the collective's own state is one block per rank plus its handlers
// bound once; the bound leaves room for scheduling noise, not for a
// per-segment or per-stream allocation. (Excluded under -race, which
// instruments allocations.)
func TestLiveAllreduceAllocs(t *testing.T) {
	const n, bound = 4, 64
	tree := trees.Binomial(n, 1)
	for _, elems := range []int{16, 8192} {
		t.Run(fmt.Sprint(elems), func(t *testing.T) {
			size := elems * 8
			in := make([]comm.Msg, n)
			for r := range in {
				b := make([]byte, size)
				for i := 0; i < elems; i++ {
					binary.LittleEndian.PutUint64(b[i*8:], math.Float64bits(float64(r+i)))
				}
				in[r] = comm.Msg{Data: b, Size: size, Space: comm.MemHost}
			}
			w := runtime.NewWorld(n)
			seq := 0
			once := func() {
				seq++
				opt := core.DefaultOptions()
				opt.Seq = seq % comm.SeqWrap
				// The result lands in each rank's own input buffer, which
				// the next run reuses as its contribution.
				w.Run(func(c *runtime.Comm) { core.Allreduce(c, tree, in[c.Rank()], opt) })
			}
			for i := 0; i < 20; i++ {
				once()
			}
			allocs := testing.AllocsPerRun(50, once)
			t.Logf("%d float64 per rank: %.0f allocations per allreduce", elems, allocs)
			if allocs > bound {
				t.Errorf("%.0f allocations per allreduce, want ≤ %d", allocs, bound)
			}
		})
	}
}
