// Package asp implements ASP — the all-pairs shortest-path application
// the paper uses for its end-to-end evaluation (§5.3, Table 1). ASP runs
// the parallel Floyd–Warshall algorithm: the N×N weight matrix is
// distributed by row blocks; in iteration k the owner of row k broadcasts
// it and every rank relaxes its local rows through vertex k. The
// broadcast dominates the runtime, which is why the paper uses ASP to
// showcase collective performance.
package asp

import (
	"math"
	"math/rand"
	"time"

	"adapt/internal/comm"
)

// BcastFunc broadcasts msg from root (the libmodel.Library.Bcast shape).
type BcastFunc func(c comm.Comm, root int, msg comm.Msg, seq int) comm.Msg

// Config sets up one ASP run.
type Config struct {
	N        int  // matrix dimension (vertices)
	Iters    int  // iterations to execute (≤ N; results scale by N/Iters)
	ElemSize int  // bytes per matrix element on the wire
	WithData bool // carry and relax real float64 distances (live runs)
	Bcast    BcastFunc
}

// Result is the timing breakdown of the executed iterations.
type Result struct {
	Comm  time.Duration // time rank 0 spent inside broadcasts
	Total time.Duration // wall/virtual time of the executed iterations
	Iters int
}

// Scaled extrapolates the executed iterations to the full N-iteration
// algorithm (iterations are statistically identical in cost).
func (r Result) Scaled(n int) Result {
	f := float64(n) / float64(r.Iters)
	return Result{
		Comm:  time.Duration(float64(r.Comm) * f),
		Total: time.Duration(float64(r.Total) * f),
		Iters: n,
	}
}

// Rows returns the half-open range of the n rows that rank r of p owns.
func Rows(n, p, r int) (lo, hi int) {
	base := n / p
	extra := n % p
	lo = r*base + min(r, extra)
	hi = lo + base
	if r < extra {
		hi++
	}
	return lo, hi
}

// ownerOf returns the rank owning row k.
func ownerOf(n, p, k int) int {
	for r := 0; r < p; r++ {
		lo, hi := Rows(n, p, r)
		if k >= lo && k < hi {
			return r
		}
	}
	panic("asp: row out of range")
}

// Run executes cfg.Iters Floyd–Warshall iterations on rank c. When
// cfg.WithData is set, dist must hold this rank's rows (row-major,
// [hi-lo][N] float64) and is relaxed in place; otherwise dist may be nil
// and only costs are modelled. It returns the timing breakdown (rank 0's
// view; other ranks get their local accounting).
func Run(c comm.Comm, cfg Config, dist [][]float64) Result {
	p := c.Size()
	me := c.Rank()
	lo, _ := Rows(cfg.N, p, me)
	rowBytes := cfg.N * cfg.ElemSize
	nl := localRows(cfg.N, p, me)

	start := c.Now()
	var commTime time.Duration
	for it := 0; it < cfg.Iters; it++ {
		k := it // iterate over the first Iters vertices
		root := ownerOf(cfg.N, p, k)
		var msg comm.Msg
		if me == root {
			if cfg.WithData {
				msg = comm.Bytes(comm.EncodeFloat64s(dist[k-lo]))
			} else {
				msg = comm.Sized(rowBytes)
			}
		} else {
			msg = comm.Sized(rowBytes)
		}
		t0 := c.Now()
		out := cfg.Bcast(c, root, msg, it)
		commTime += c.Now() - t0

		if cfg.WithData {
			rowK := comm.DecodeFloat64s(out.Data)
			for i := range dist {
				dik := dist[i][k]
				if math.IsInf(dik, 1) {
					continue
				}
				row := dist[i]
				for j := range row {
					if v := dik + rowK[j]; v < row[j] {
						row[j] = v
					}
				}
			}
		}
		// Charge the relaxation sweep (live: performed above for real and
		// Compute is a no-op; simulated: γ·(local rows × row bytes)).
		c.Compute(nl*rowBytes, comm.ComputeApp)
	}
	return Result{Comm: commTime, Total: c.Now() - start, Iters: cfg.Iters}
}

func localRows(n, p, r int) int {
	lo, hi := Rows(n, p, r)
	return hi - lo
}

// Sequential solves all-pairs shortest paths by plain Floyd–Warshall,
// the reference for correctness tests. dist is modified in place.
func Sequential(dist [][]float64) {
	n := len(dist)
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			dik := dist[i][k]
			if math.IsInf(dik, 1) {
				continue
			}
			for j := 0; j < n; j++ {
				if v := dik + dist[k][j]; v < dist[i][j] {
					dist[i][j] = v
				}
			}
		}
	}
}

// RandGraph builds a seeded random weighted digraph adjacency matrix:
// each off-diagonal edge exists with probability 0.3 and weighs 1 to 10.
func RandGraph(n int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
		for j := range d[i] {
			switch {
			case i == j:
				d[i][j] = 0
			case rng.Float64() < 0.3:
				d[i][j] = 1 + 9*rng.Float64()
			default:
				d[i][j] = math.Inf(1)
			}
		}
	}
	return d
}

// CopyMatrix returns a deep copy of d.
func CopyMatrix(d [][]float64) [][]float64 {
	out := make([][]float64, len(d))
	for i := range d {
		out[i] = append([]float64(nil), d[i]...)
	}
	return out
}
