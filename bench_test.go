// Package adapt_test hosts the repository-level benchmark harness: one
// testing.B benchmark per paper exhibit (Figures 7–11, Table 1), each
// driving the same generator as `adapt bench` at the Quick scale, plus
// ablation benchmarks for the design decisions called out in DESIGN.md §5.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// Full paper-scale exhibits are generated by `go run ./cmd/adapt bench
// -exp all` (minutes, not benchmark material). To profile one exhibit,
// profile its benchmark:
//
//	go test -run '^$' -bench BenchmarkFig9a -cpuprofile cpu.pprof .
package adapt_test

import (
	"fmt"
	"io"
	"testing"
	"time"

	"adapt/internal/bench"
	"adapt/internal/coll"
	"adapt/internal/comm"
	"adapt/internal/core"
	"adapt/internal/imb"
	"adapt/internal/libmodel"
	"adapt/internal/netmodel"
	"adapt/internal/noise"
	"adapt/internal/sim"
	"adapt/internal/simmpi"
	"adapt/internal/trees"
)

// benchExhibit runs one bench.Run generator per iteration.
func benchExhibit(b *testing.B, id string) {
	s := bench.Quick()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := bench.Run(id, s, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7a(b *testing.B)  { benchExhibit(b, "fig7a") }
func BenchmarkFig7b(b *testing.B)  { benchExhibit(b, "fig7b") }
func BenchmarkFig8a(b *testing.B)  { benchExhibit(b, "fig8a") }
func BenchmarkFig8b(b *testing.B)  { benchExhibit(b, "fig8b") }
func BenchmarkFig9a(b *testing.B)  { benchExhibit(b, "fig9a") }
func BenchmarkFig9b(b *testing.B)  { benchExhibit(b, "fig9b") }
func BenchmarkFig10(b *testing.B)  { benchExhibit(b, "fig10") }
func BenchmarkFig11a(b *testing.B) { benchExhibit(b, "fig11a") }
func BenchmarkFig11b(b *testing.B) { benchExhibit(b, "fig11b") }
func BenchmarkTable1(b *testing.B) { benchExhibit(b, "table1") }

// reportVirtual runs a measurement per b.N and reports the *virtual* time
// (the simulated collective latency) as a benchmark metric next to the
// host-side cost of simulating it.
func reportVirtual(b *testing.B, f func() time.Duration) {
	b.ReportAllocs()
	var v time.Duration
	for i := 0; i < b.N; i++ {
		v = f()
	}
	b.ReportMetric(float64(v.Microseconds()), "virtual-µs/op")
}

// --- Ablation 1 (DESIGN.md §5.1): in-flight windows (N, M).

func BenchmarkAblationInflight(b *testing.B) {
	p := netmodel.Cori(4)
	spec := noise.Percent(10)
	spec.Fraction = 0.05
	for _, win := range []struct{ n, m int }{{1, 1}, {1, 2}, {2, 4}, {4, 8}, {8, 16}} {
		win := win
		b.Run(fmt.Sprintf("N%d_M%d", win.n, win.m), func(b *testing.B) {
			lib := libmodel.Library{
				Name: "adapt",
				Bcast: func(c comm.Comm, root int, msg comm.Msg, seq int) comm.Msg {
					opt := core.DefaultOptions()
					opt.Seq = seq
					opt.SendWindow, opt.RecvWindow = win.n, win.m
					t := trees.Topology(p.Topo, root, libmodel.AdaptDefaultConfig())
					return core.Bcast(c, t, msg, opt)
				},
			}
			reportVirtual(b, func() time.Duration {
				return imb.Measure(imb.Config{
					Platform: p, Noise: spec, Library: lib, Op: imb.Bcast,
					Size: 4 * netmodel.MB, Warmup: 1, Reps: 4,
				})
			})
		})
	}
}

// --- Ablation 2 (DESIGN.md §5.2): pipeline segment size.

func BenchmarkAblationSegment(b *testing.B) {
	p := netmodel.Cori(4)
	for _, seg := range []int{16 << 10, 64 << 10, 128 << 10, 512 << 10, 4 << 20} {
		seg := seg
		b.Run(fmt.Sprintf("seg%dK", seg>>10), func(b *testing.B) {
			lib := libmodel.Library{
				Name: "adapt",
				Bcast: func(c comm.Comm, root int, msg comm.Msg, seq int) comm.Msg {
					opt := core.DefaultOptions()
					opt.Seq = seq
					opt.SegSize = seg
					t := trees.Topology(p.Topo, root, libmodel.AdaptDefaultConfig())
					return core.Bcast(c, t, msg, opt)
				},
			}
			reportVirtual(b, func() time.Duration {
				return imb.Measure(imb.Config{
					Platform: p, Noise: noise.None, Library: lib, Op: imb.Bcast,
					Size: 4 * netmodel.MB, Warmup: 1, Reps: 3,
				})
			})
		})
	}
}

// --- Ablation 3 (DESIGN.md §5.3): topology-aware tree vs topology-blind
// trees under the same event-driven engine.

func BenchmarkAblationTopoTree(b *testing.B) {
	p := netmodel.Cori(4)
	cases := []struct {
		name string
		tree func(root int) *trees.Tree
	}{
		{"topo-aware", func(root int) *trees.Tree {
			return trees.Topology(p.Topo, root, libmodel.AdaptDefaultConfig())
		}},
		{"flat-binomial", func(root int) *trees.Tree {
			return trees.Binomial(p.Topo.Size(), root)
		}},
		{"flat-chain", func(root int) *trees.Tree {
			return trees.Chain(p.Topo.Size(), root)
		}},
	}
	for _, tc := range cases {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			lib := libmodel.Library{
				Name: tc.name,
				Bcast: func(c comm.Comm, root int, msg comm.Msg, seq int) comm.Msg {
					opt := core.DefaultOptions()
					opt.Seq = seq
					return core.Bcast(c, tc.tree(root), msg, opt)
				},
			}
			reportVirtual(b, func() time.Duration {
				return imb.Measure(imb.Config{
					Platform: p, Noise: noise.None, Library: lib, Op: imb.Bcast,
					Size: 4 * netmodel.MB, Warmup: 1, Reps: 3,
				})
			})
		})
	}
}

// --- Ablation 4 (DESIGN.md §5.4): GPU staging and offload, isolated.

func BenchmarkAblationGPU(b *testing.B) {
	p := netmodel.PSG(4)
	tree := trees.Topology(p.Topo, 0, trees.ChainConfig())
	run := func(body func(c *simmpi.Comm)) time.Duration {
		k := sim.New()
		w := simmpi.NewWorld(k, p, noise.None)
		w.Spawn(body)
		return k.MustRun()
	}
	const size = 16 * netmodel.MB
	b.Run("bcast-unstaged", func(b *testing.B) {
		reportVirtual(b, func() time.Duration {
			return run(func(c *simmpi.Comm) { core.Bcast(c, tree, comm.Sized(size), core.DefaultOptions()) })
		})
	})
	b.Run("bcast-staged", func(b *testing.B) {
		reportVirtual(b, func() time.Duration {
			return run(func(c *simmpi.Comm) {
				core.BcastStaged(c, p.Topo, tree, comm.Sized(size), core.DefaultOptions())
			})
		})
	})
	b.Run("reduce-cpu", func(b *testing.B) {
		reportVirtual(b, func() time.Duration {
			return run(func(c *simmpi.Comm) { core.Reduce(c, tree, comm.Sized(size), core.DefaultOptions()) })
		})
	})
	b.Run("reduce-offload", func(b *testing.B) {
		reportVirtual(b, func() time.Duration {
			return run(func(c *simmpi.Comm) {
				core.ReduceOffload(c, tree, comm.Sized(size), core.DefaultOptions())
			})
		})
	})
}

// --- Ablation 5 (DESIGN.md §5.5): event-driven vs Waitall on the very
// same topology-aware tree, across noise levels.

func BenchmarkAblationDiscipline(b *testing.B) {
	p := netmodel.Cori(4)
	tree := trees.Topology(p.Topo, 0, libmodel.AdaptDefaultConfig())
	for _, pct := range []int{0, 10} {
		for _, alg := range []coll.Algorithm{coll.Blocking, coll.NonBlocking, coll.Adapt} {
			pct, alg := pct, alg
			b.Run(fmt.Sprintf("%s_noise%d", alg, pct), func(b *testing.B) {
				spec := noise.Percent(pct)
				spec.Fraction = 0.05
				lib := libmodel.Library{
					Name: alg.String(),
					Bcast: func(c comm.Comm, root int, msg comm.Msg, seq int) comm.Msg {
						opt := coll.DefaultOptions()
						opt.Seq = seq
						return coll.Bcast(c, tree, msg, opt, alg)
					},
				}
				reportVirtual(b, func() time.Duration {
					return imb.Measure(imb.Config{
						Platform: p, Noise: spec, Library: lib, Op: imb.Bcast,
						Size: 4 * netmodel.MB, Warmup: 1, Reps: 4,
					})
				})
			})
		}
	}
}

// --- Substrate micro-benchmarks: cost of simulating one collective.

func BenchmarkSimBcast1024(b *testing.B) {
	p := netmodel.Cori(32)
	lib := libmodel.OMPIAdapt(p)
	reportVirtual(b, func() time.Duration {
		return imb.Measure(imb.Config{
			Platform: p, Noise: noise.None, Library: lib, Op: imb.Bcast,
			Size: 4 * netmodel.MB, Warmup: 0, Reps: 1,
		})
	})
}

func BenchmarkKernelEventThroughput(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := sim.New()
		for j := 0; j < 10000; j++ {
			k.Schedule(time.Duration(j)*time.Microsecond, func() {})
		}
		k.MustRun()
	}
}

// --- Ablation 6: advanced trees — two-tree (Sanders et al. [31]) vs the
// single binary tree vs the chain, same event-driven engine, one node.

func BenchmarkAblationTwoTree(b *testing.B) {
	p := netmodel.Cori(1)
	const size = 8 * netmodel.MB
	run := func(body func(c *simmpi.Comm)) time.Duration {
		k := sim.New()
		w := simmpi.NewWorld(k, p, noise.None)
		w.Spawn(body)
		return k.MustRun()
	}
	b.Run("binary", func(b *testing.B) {
		reportVirtual(b, func() time.Duration {
			return run(func(c *simmpi.Comm) {
				core.Bcast(c, trees.Binary(c.Size(), 0), comm.Sized(size), core.DefaultOptions())
			})
		})
	})
	b.Run("chain", func(b *testing.B) {
		reportVirtual(b, func() time.Duration {
			return run(func(c *simmpi.Comm) {
				core.Bcast(c, trees.Chain(c.Size(), 0), comm.Sized(size), core.DefaultOptions())
			})
		})
	})
	b.Run("two-tree", func(b *testing.B) {
		ta, tb := trees.TwoTree(p.Topo.Size(), 0)
		reportVirtual(b, func() time.Duration {
			return run(func(c *simmpi.Comm) {
				core.BcastTwoTree(c, ta, tb, comm.Sized(size), core.DefaultOptions())
			})
		})
	})
}
