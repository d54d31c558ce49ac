package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"testing"

	"adapt/internal/comm"
	"adapt/internal/hwloc"
	"adapt/internal/netmodel"
	"adapt/internal/noise"
	"adapt/internal/runtime"
	"adapt/internal/simmpi"
	"adapt/internal/trees"
)

// TestFusedAllreduceLive: every rank must end up with the exact global
// sum, across tree shapes and rank counts, on the live runtime.
func TestFusedAllreduceLive(t *testing.T) {
	for _, b := range trees.Builders() {
		for _, n := range []int{1, 2, 6, 13} {
			b, n := b, n
			t.Run(fmt.Sprintf("%s/p%d", b.Name, n), func(t *testing.T) {
				t.Parallel()
				const ne = 700
				tree := b.Build(n, 0)
				w := runtime.NewWorld(n)
				var mu sync.Mutex
				results := map[int][]int64{}
				w.Run(func(c *runtime.Comm) {
					vals := make([]int64, ne)
					for i := range vals {
						vals[i] = int64((c.Rank() + 2) * (i + 1))
					}
					opt := DefaultOptions()
					opt.SegSize = 2 << 10
					opt.Datatype = comm.Int64
					out := Allreduce(c, tree, comm.Bytes(comm.EncodeInt64s(vals)), opt)
					mu.Lock()
					results[c.Rank()] = comm.DecodeInt64s(out.Data)
					mu.Unlock()
				})
				for i := 0; i < ne; i++ {
					want := int64(0)
					for r := 0; r < n; r++ {
						want += int64((r + 2) * (i + 1))
					}
					for r := 0; r < n; r++ {
						if results[r][i] != want {
							t.Fatalf("rank %d elem %d: got %d, want %d", r, i, results[r][i], want)
						}
					}
				}
			})
		}
	}
}

// TestAllreduceResultInPlace: on the live runtime with real bytes, the
// allreduce result is each rank's own contribution buffer — at the
// root, at an intermediate rank and at the leaves — and its bytes equal
// the simulator's, for one eager segment and for several rendezvous
// segments.
func TestAllreduceResultInPlace(t *testing.T) {
	const n = 4
	tree := trees.Binomial(n, 1)
	p := netmodel.Cori(1).WithTopo(hwloc.New(2, 1, 2))
	roles := map[string]bool{}
	for r := 0; r < n; r++ {
		switch {
		case tree.Parent[r] == -1:
			roles["root"] = true
		case len(tree.Children[r]) > 0:
			roles["intermediate"] = true
		default:
			roles["leaf"] = true
		}
	}
	if len(roles) != 3 {
		t.Fatalf("tree covers roles %v, want root, intermediate and leaf", roles)
	}
	contrib := func(rank, elems int) comm.Msg {
		b := make([]byte, 8*elems)
		for i := 0; i < elems; i++ {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(float64((rank*31+i)%17)-0.25))
		}
		return comm.Bytes(b)
	}
	for _, elems := range []int{16, 8192} {
		opt := DefaultOptions()
		opt.SegSize = 16 << 10 // four rendezvous segments at 8192 elements
		golden := make([][]byte, n)
		runSim(t, p, noise.None, func(c *simmpi.Comm) {
			golden[c.Rank()] = Allreduce(c, tree, contrib(c.Rank(), elems), opt).Data
		})
		got := make([][]byte, n)
		runtime.NewWorld(n).Run(func(c *runtime.Comm) {
			in := contrib(c.Rank(), elems)
			out := Allreduce(c, tree, in, opt)
			if len(out.Data) != len(in.Data) || &out.Data[0] != &in.Data[0] {
				t.Errorf("%d elems rank %d: result is not the contribution buffer", elems, c.Rank())
			}
			got[c.Rank()] = out.Data
		})
		// Quarter-integer terms sum exactly in any fold order.
		want := contrib(0, elems).Data
		for r := 1; r < n; r++ {
			comm.OpSum.Apply(want, contrib(r, elems).Data, comm.Float64)
		}
		for r := 0; r < n; r++ {
			if !bytes.Equal(golden[r], want) {
				t.Fatalf("%d elems rank %d: simulator result is not the sum", elems, r)
			}
			if !bytes.Equal(got[r], golden[r]) {
				t.Fatalf("%d elems rank %d: live result diverges from the simulator's", elems, r)
			}
		}
	}
}

// The fused allreduce must beat sequential reduce-then-bcast on the
// simulator: the down pipeline starts while the up pipeline still runs.
func TestFusedAllreduceOverlapsPhases(t *testing.T) {
	p := netmodel.Cori(2)
	tree := trees.Topology(p.Topo, 0, trees.ChainConfig())
	fused := runSim(t, p, noise.None, func(c *simmpi.Comm) {
		Allreduce(c, tree, comm.Sized(4*netmodel.MB), DefaultOptions())
	})
	sequential := runSim(t, p, noise.None, func(c *simmpi.Comm) {
		opt := DefaultOptions()
		red := Reduce(c, tree, comm.Sized(4*netmodel.MB), opt)
		opt.Seq = 1
		var msg comm.Msg
		if c.Rank() == 0 {
			msg = red
		} else {
			msg = comm.Sized(4 * netmodel.MB)
		}
		Bcast(c, tree, msg, opt)
	})
	if fused >= sequential {
		t.Fatalf("fused allreduce (%v) should beat reduce+bcast (%v)", fused, sequential)
	}
	t.Logf("fused %v vs sequential %v", fused, sequential)
}

// TestEventScatterLive: block delivery correctness for the event-driven
// scatter across trees and roots.
func TestEventScatterLive(t *testing.T) {
	for _, n := range []int{1, 2, 5, 12} {
		for _, root := range []int{0, n / 2} {
			n, root := n, root
			t.Run(fmt.Sprintf("p%d/root%d", n, root), func(t *testing.T) {
				t.Parallel()
				blk := 5000
				full := payload(blk*n, int64(n+root))
				tree := trees.Binomial(n, root)
				w := runtime.NewWorld(n)
				var mu sync.Mutex
				chunks := map[int][]byte{}
				w.Run(func(c *runtime.Comm) {
					opt := DefaultOptions()
					opt.SegSize = 1 << 10 // force multi-segment forwarding
					var msg comm.Msg
					if c.Rank() == root {
						msg = comm.Bytes(append([]byte(nil), full...))
					} else {
						msg = comm.Sized(len(full))
					}
					mine := Scatter(c, tree, msg, opt)
					mu.Lock()
					chunks[c.Rank()] = append([]byte(nil), mine.Data...)
					mu.Unlock()
				})
				for r := 0; r < n; r++ {
					if !bytes.Equal(chunks[r], full[r*blk:(r+1)*blk]) {
						t.Fatalf("rank %d received the wrong block", r)
					}
				}
			})
		}
	}
}

// TestEventGatherLive: the gather reassembles rank-ordered data at the
// root for various trees.
func TestEventGatherLive(t *testing.T) {
	for _, b := range trees.Builders() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			const n, blk = 9, 3000
			tree := b.Build(n, 2)
			w := runtime.NewWorld(n)
			var got []byte
			var mu sync.Mutex
			w.Run(func(c *runtime.Comm) {
				opt := DefaultOptions()
				opt.SegSize = 1 << 10
				mine := payload(blk, int64(c.Rank()*11))
				out := Gather(c, tree, comm.Bytes(mine), opt)
				if c.Rank() == 2 {
					mu.Lock()
					got = out.Data
					mu.Unlock()
				}
			})
			var want []byte
			for r := 0; r < n; r++ {
				want = append(want, payload(blk, int64(r*11))...)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("gathered buffer is not rank-ordered input")
			}
		})
	}
}

// Scatter then gather over the same tree is the identity.
func TestEventScatterGatherRoundTrip(t *testing.T) {
	const n, blk = 7, 2048
	tree := trees.Kary(3)(n, 0)
	full := payload(blk*n, 99)
	w := runtime.NewWorld(n)
	var got []byte
	var mu sync.Mutex
	w.Run(func(c *runtime.Comm) {
		opt := DefaultOptions()
		opt.SegSize = 512
		var msg comm.Msg
		if c.Rank() == 0 {
			msg = comm.Bytes(append([]byte(nil), full...))
		} else {
			msg = comm.Sized(len(full))
		}
		mine := Scatter(c, tree, msg, opt)
		opt2 := opt
		opt2.Seq = 1
		out := Gather(c, tree, mine, opt2)
		if c.Rank() == 0 {
			mu.Lock()
			got = out.Data
			mu.Unlock()
		}
	})
	if !bytes.Equal(got, full) {
		t.Fatal("gather(scatter(x)) != x")
	}
}

// TestEventAllgatherLive: every rank assembles the rank-ordered blocks.
func TestEventAllgatherLive(t *testing.T) {
	for _, n := range []int{1, 2, 3, 8} {
		n := n
		t.Run(fmt.Sprintf("p%d", n), func(t *testing.T) {
			t.Parallel()
			const blk = 4096
			w := runtime.NewWorld(n)
			var mu sync.Mutex
			results := map[int][]byte{}
			w.Run(func(c *runtime.Comm) {
				opt := DefaultOptions()
				opt.SegSize = 1 << 10
				mine := payload(blk, int64(c.Rank()*7+1))
				out := Allgather(c, comm.Bytes(mine), opt)
				mu.Lock()
				results[c.Rank()] = out.Data
				mu.Unlock()
			})
			var want []byte
			for r := 0; r < n; r++ {
				want = append(want, payload(blk, int64(r*7+1))...)
			}
			for r := 0; r < n; r++ {
				if !bytes.Equal(results[r], want) {
					t.Fatalf("rank %d allgather mismatch", r)
				}
			}
		})
	}
}

// TestEventAlltoallLive: rank r's output block s equals rank s's input
// block r.
func TestEventAlltoallLive(t *testing.T) {
	for _, n := range []int{1, 2, 5, 10} {
		n := n
		t.Run(fmt.Sprintf("p%d", n), func(t *testing.T) {
			t.Parallel()
			const blk = 1000
			mkInput := func(rank int) []byte {
				buf := make([]byte, blk*n)
				for d := 0; d < n; d++ {
					copy(buf[d*blk:], payload(blk, int64(rank*1000+d)))
				}
				return buf
			}
			w := runtime.NewWorld(n)
			var mu sync.Mutex
			results := map[int][]byte{}
			w.Run(func(c *runtime.Comm) {
				out := Alltoall(c, comm.Bytes(mkInput(c.Rank())), DefaultOptions())
				mu.Lock()
				results[c.Rank()] = out.Data
				mu.Unlock()
			})
			for r := 0; r < n; r++ {
				for s := 0; s < n; s++ {
					want := payload(blk, int64(s*1000+r))
					if !bytes.Equal(results[r][s*blk:(s+1)*blk], want) {
						t.Fatalf("rank %d block %d wrong", r, s)
					}
				}
			}
		})
	}
}

// The extended collectives also run elided at simulator scale.
func TestExtendedCollectivesSimScale(t *testing.T) {
	p := netmodel.Cori(2) // 64 ranks
	n := p.Topo.Size()
	tree := trees.Topology(p.Topo, 0, trees.ChainConfig())
	end := runSim(t, p, noise.None, func(c *simmpi.Comm) {
		opt := DefaultOptions()
		Scatter(c, tree, comm.Sized(64*n*netmodel.KB), opt)
		opt.Seq = 1
		Gather(c, tree, comm.Sized(64*netmodel.KB), opt)
		opt.Seq = 2
		Allgather(c, comm.Sized(64*netmodel.KB), opt)
		opt.Seq = 3
		Alltoall(c, comm.Sized(int(n)*8*netmodel.KB), opt)
		opt.Seq = 4
		Allreduce(c, tree, comm.Sized(1*netmodel.MB), opt)
	})
	if end <= 0 {
		t.Fatal("no virtual time elapsed")
	}
	t.Logf("five extended collectives over %d simulated ranks: %v", n, end)
}

// Determinism of the extended collectives on the simulator.
func TestExtendedCollectivesDeterministic(t *testing.T) {
	p := netmodel.Cori(1)
	run := func() int64 {
		return int64(runSim(t, p, noise.Percent(5), func(c *simmpi.Comm) {
			opt := DefaultOptions()
			Allreduce(c, trees.Topology(p.Topo, 0, trees.ChainConfig()), comm.Sized(2*netmodel.MB), opt)
			opt.Seq = 1
			Alltoall(c, comm.Sized(c.Size()*32*netmodel.KB), opt)
		}))
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("non-deterministic: %d vs %d", a, b)
	}
}
