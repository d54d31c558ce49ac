package conform

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"adapt/internal/comm"
	"adapt/internal/core"
	"adapt/internal/faults"
	"adapt/internal/hwloc"
	"adapt/internal/netmodel"
	"adapt/internal/nettransport"
	"adapt/internal/perf"
	"adapt/internal/runtime"
	"adapt/internal/trees"
)

// TestAllreduceBufferOwnership: the live fused allreduce returns every
// receiver-owned segment buffer to the pool — a folded contribution on
// the way up, a segment copied into the result and forwarded as an alias
// on the way down — so the segment pool recycles instead of allocating
// per segment. 50 allreduces on 4 ranks, eager (16 float64) and
// rendezvous (8192 float64) sizes, on the goroutine runtime and the TCP
// transport; every result must equal the simulator golden byte for byte.
func TestAllreduceBufferOwnership(t *testing.T) {
	const n, runs = 4, 50
	topo := hwloc.New(2, 1, 2)
	p := netmodel.Cori(1).WithTopo(topo)
	tree := trees.Binomial(n, 1)
	substrates := []struct {
		name string
		run  func(t *testing.T, body func(c comm.Comm))
	}{
		{"runtime", func(t *testing.T, body func(c comm.Comm)) {
			w := runtime.NewWorld(n, runtime.WithRunTimeout(60*time.Second))
			w.Run(func(c *runtime.Comm) { body(c) })
		}},
		{"nettransport", func(t *testing.T, body func(c comm.Comm)) {
			if testing.Short() {
				t.Skip("TCP substrate skipped in -short")
			}
			w, err := nettransport.NewLocalWorld(n)
			if err != nil {
				t.Fatalf("NewLocalWorld(%d): %v", n, err)
			}
			defer w.Close()
			w.WithRunTimeout(60 * time.Second)
			w.Run(func(c *nettransport.Comm) { body(c) })
		}},
	}
	for _, sub := range substrates {
		for _, elems := range []int{16, 8192} {
			size := elems * 8
			t.Run(fmt.Sprintf("%s/%d", sub.name, elems), func(t *testing.T) {
				cs := Case{
					Name: "core/allreduce",
					In:   contribLattice(size),
					Run: func(c comm.Comm, in comm.Msg, opt core.Options) comm.Msg {
						return core.Allreduce(c, tree, in, opt)
					},
				}
				golden := RunCase(p, cs, core.DefaultOptions(), nil, faults.Recovery{})
				if golden.Err != nil {
					t.Fatalf("golden run failed: %v", golden.Err)
				}
				out := make([][][]byte, runs)
				for i := range out {
					out[i] = make([][]byte, n)
				}
				before := perf.Read()
				sub.run(t, func(c comm.Comm) {
					for i := 0; i < runs; i++ {
						opt := core.DefaultOptions()
						opt.Seq = i + 1
						res := cs.Run(c, cs.In(c.Rank()), opt)
						out[i][c.Rank()] = append([]byte(nil), res.Data...)
					}
				})
				d := perf.Read().Delta(before)
				for i := range out {
					for r := 0; r < n; r++ {
						if !bytes.Equal(golden.Out[r], out[i][r]) {
							t.Fatalf("run %d rank %d diverges from simulator golden (first delta at %d)",
								i, r, firstDelta(golden.Out[r], out[i][r]))
						}
					}
				}
				t.Logf("pool: %d gets, %d hits, %d puts", d.BufGets, d.BufHits, d.BufPuts)
				if d.BufGets == 0 || float64(d.BufPuts) < 0.9*float64(d.BufGets) {
					t.Errorf("pool puts %d < 0.9 × gets %d: the allreduce leaks segment buffers", d.BufPuts, d.BufGets)
				}
			})
		}
	}
}
