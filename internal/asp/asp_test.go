package asp

import (
	"math"
	"sync"
	"testing"

	"adapt/internal/comm"
	"adapt/internal/core"
	"adapt/internal/libmodel"
	"adapt/internal/netmodel"
	"adapt/internal/noise"
	"adapt/internal/runtime"
	"adapt/internal/sim"
	"adapt/internal/simmpi"
	"adapt/internal/trees"
)

// liveBcast is an ADAPT broadcast usable from the live runtime.
func liveBcast(c comm.Comm, root int, msg comm.Msg, seq int) comm.Msg {
	opt := core.DefaultOptions()
	opt.Seq = seq
	opt.SegSize = 4 << 10
	return core.Bcast(c, trees.Binomial(c.Size(), root), msg, opt)
}

// TestDistributedMatchesSequential runs full ASP (Iters = N) on the live
// runtime with real data and compares every distance to the sequential
// Floyd–Warshall.
func TestDistributedMatchesSequential(t *testing.T) {
	const n, p = 48, 6
	graph := RandGraph(n, 7)
	want := CopyMatrix(graph)
	Sequential(want)

	w := runtime.NewWorld(p)
	var mu sync.Mutex
	got := make([][]float64, n)
	w.Run(func(c *runtime.Comm) {
		lo, hi := Rows(n, p, c.Rank())
		local := CopyMatrix(graph[lo:hi])
		Run(c, Config{N: n, Iters: n, ElemSize: 8, WithData: true, Bcast: liveBcast}, local)
		mu.Lock()
		for i := lo; i < hi; i++ {
			got[i] = local[i-lo]
		}
		mu.Unlock()
	})
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if got[i][j] != want[i][j] {
				t.Fatalf("dist[%d][%d] = %v, want %v", i, j, got[i][j], want[i][j])
			}
		}
	}
}

func TestRowsPartition(t *testing.T) {
	for _, c := range []struct{ n, p int }{{48, 6}, {100, 7}, {5, 5}, {16384, 1024}} {
		total := 0
		for r := 0; r < c.p; r++ {
			lo, hi := Rows(c.n, c.p, r)
			if hi < lo {
				t.Fatalf("Rows(%d,%d,%d) inverted", c.n, c.p, r)
			}
			total += hi - lo
			for k := lo; k < hi; k++ {
				if ownerOf(c.n, c.p, k) != r {
					t.Fatalf("ownerOf(%d) != %d", k, r)
				}
			}
		}
		if total != c.n {
			t.Fatalf("(%d,%d): rows sum to %d", c.n, c.p, total)
		}
	}
}

func TestScaled(t *testing.T) {
	r := Result{Comm: 100, Total: 400, Iters: 10}
	s := r.Scaled(100)
	if s.Comm != 1000 || s.Total != 4000 || s.Iters != 100 {
		t.Fatalf("scaled = %+v", s)
	}
}

// TestSimulatedASPCommFraction runs the Table-1 workload at reduced scale
// and checks the headline property: ADAPT's communication share of the
// runtime is far below the tuned module's.
func TestSimulatedASPCommFraction(t *testing.T) {
	p := netmodel.Cori(4) // 128 ranks
	frac := func(lib libmodel.Library) float64 {
		k := sim.New()
		w := simmpi.NewWorld(k, p, noise.None)
		var res Result
		w.Spawn(func(c *simmpi.Comm) {
			r := Run(c, Config{N: 4096, Iters: 32, ElemSize: 8, Bcast: lib.Bcast}, nil)
			if c.Rank() == 0 {
				res = r
			}
		})
		k.MustRun()
		return float64(res.Comm) / float64(res.Total)
	}
	adapt := frac(libmodel.OMPIAdapt(p))
	tuned := frac(libmodel.OMPIDefault(p))
	if adapt >= tuned {
		t.Fatalf("ADAPT comm fraction (%.2f) must be below tuned (%.2f)", adapt, tuned)
	}
	t.Logf("comm fraction: adapt %.2f, tuned %.2f", adapt, tuned)
}

func TestSequentialTriangle(t *testing.T) {
	inf := math.Inf(1)
	d := [][]float64{
		{0, 5, inf},
		{inf, 0, 2},
		{1, inf, 0},
	}
	Sequential(d)
	want := [][]float64{
		{0, 5, 7},
		{3, 0, 2},
		{1, 6, 0},
	}
	for i := range want {
		for j := range want[i] {
			if d[i][j] != want[i][j] {
				t.Fatalf("d[%d][%d] = %v, want %v", i, j, d[i][j], want[i][j])
			}
		}
	}
}
