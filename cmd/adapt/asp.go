package main

// adapt asp runs the all-pairs shortest-path application (paper §5.3).
// Live mode executes real Floyd–Warshall on the in-process runtime and
// verifies the result against the sequential algorithm; sim mode
// reproduces Table 1's timing breakdown on a simulated Cori cluster
// (128 executed iterations, scaled to the full run).
//
//	adapt asp -mode live -n 256 -ranks 8
//	adapt asp -mode sim -n 16384 -nodes 32 -lib ompi-adapt

import (
	"fmt"
	"io"
	"sync"

	"adapt/internal/asp"
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

const (
	aspGraphSeed = 1   // live mode's random graph
	aspSimIters  = 128 // iterations sim mode executes before scaling
)

func runASP(args []string, stdout, stderr io.Writer) int {
	fs := newFlags("asp", stderr)
	mode := fs.String("mode", "live", "live or sim")
	n := fs.Int("n", 256, "matrix dimension")
	ranks := fs.Int("ranks", 8, "live mode: number of ranks")
	nodes := fs.Int("nodes", 32, "sim mode: Cori nodes")
	libName := fs.String("lib", "ompi-adapt", "sim mode: library proxy")
	if fs.Parse(args) != nil {
		return 2
	}
	switch *mode {
	case "live":
		return aspLive(stdout, stderr, *n, *ranks)
	case "sim":
		return aspSim(stdout, stderr, *n, *nodes, *libName)
	}
	fmt.Fprintf(stderr, "adapt asp: unknown mode %q\n", *mode)
	return 2
}

func aspLive(stdout, stderr io.Writer, n, ranks int) int {
	graph := asp.RandGraph(n, aspGraphSeed)
	want := asp.CopyMatrix(graph)
	asp.Sequential(want)

	w := runtime.NewWorld(ranks)
	var mu sync.Mutex
	var res asp.Result
	got := make([][]float64, n)
	w.Run(func(c *runtime.Comm) {
		lo, hi := asp.Rows(n, ranks, c.Rank())
		local := asp.CopyMatrix(graph[lo:hi])
		r := asp.Run(c, asp.Config{
			N: n, Iters: n, ElemSize: 8, WithData: true,
			Bcast: func(c comm.Comm, root int, msg comm.Msg, seq int) comm.Msg {
				opt := core.DefaultOptions()
				opt.Seq = seq
				return core.Bcast(c, trees.Binomial(c.Size(), root), msg, opt)
			},
		}, local)
		mu.Lock()
		copy(got[lo:hi], local)
		if c.Rank() == 0 {
			res = r
		}
		mu.Unlock()
	})
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if got[i][j] != want[i][j] {
				fmt.Fprintf(stderr, "adapt asp: VERIFICATION FAILED at [%d][%d]: %v != %v\n",
					i, j, got[i][j], want[i][j])
				return 1
			}
		}
	}
	fmt.Fprintf(stdout, "ASP live: N=%d on %d ranks — verified against sequential Floyd–Warshall\n", n, ranks)
	fmt.Fprintf(stdout, "  communication %v, total %v (%.0f%% comm)\n",
		res.Comm, res.Total, 100*float64(res.Comm)/float64(res.Total))
	return 0
}

func aspSim(stdout, stderr io.Writer, n, nodes int, libName string) int {
	p := netmodel.Cori(nodes)
	lib, err := libmodel.ByName(libName, p)
	if err != nil {
		return failed(stderr, "asp", err)
	}
	k := sim.New()
	w := simmpi.NewWorld(k, p, noise.None)
	var res asp.Result
	w.Spawn(func(c *simmpi.Comm) {
		r := asp.Run(c, asp.Config{N: n, Iters: aspSimIters, ElemSize: 8, Bcast: lib.Bcast}, nil)
		if c.Rank() == 0 {
			res = r
		}
	})
	k.MustRun()
	full := res.Scaled(n)
	fmt.Fprintf(stdout, "ASP sim: N=%d on %d ranks (%s), %s, %d/%d iterations executed\n",
		n, p.Topo.Size(), p.Name, lib.Name, aspSimIters, n)
	fmt.Fprintf(stdout, "  communication %.2fs, total %.2fs (%.0f%% comm), scaled to full run\n",
		full.Comm.Seconds(), full.Total.Seconds(), 100*float64(full.Comm)/float64(full.Total))
	return 0
}
