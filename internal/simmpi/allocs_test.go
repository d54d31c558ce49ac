//go:build !race && !pooldebug

package simmpi_test

import (
	"testing"

	"adapt/internal/comm"
	"adapt/internal/core"
	"adapt/internal/faults"
	"adapt/internal/fec"
	"adapt/internal/netmodel"
	"adapt/internal/noise"
	"adapt/internal/sim"
	"adapt/internal/simmpi"
	"adapt/internal/trees"
)

// TestFlatAllreduceAllocs bounds the heap allocations of a clean flat
// allreduce per point-to-point data transfer, world build included. The
// transfer path recycles its hop and rendezvous records, the engines
// recycle requests once their callbacks fired, and the collectives bind
// their send and receive callbacks once per state, so what is left per
// transfer is mostly the requests in flight at the peak: every rank posts
// its receive windows at once. (Excluded under -race, which instruments
// allocations, and under pooldebug, whose quarantine holds released
// records back from reuse.)
func TestFlatAllreduceAllocs(t *testing.T) {
	const ranks, size = 512, 1 << 20
	p := netmodel.Cori(16)
	p.Aggregate = true
	if p.Topo.Size() != ranks {
		t.Fatalf("Cori(16) has %d ranks, want %d", p.Topo.Size(), ranks)
	}
	tree := trees.Binomial(ranks, 0)
	opt := core.DefaultOptions()
	transfers := 2 * (ranks - 1) * comm.NumSegments(size, opt.SegSize)

	allocs := testing.AllocsPerRun(2, func() {
		k := sim.New()
		w := simmpi.NewWorld(k, p, noise.None)
		w.SpawnFlat(func(c *simmpi.Comm) { core.StartAllreduce(c, tree, comm.Sized(size), opt) })
		k.MustRun()
	})
	per := allocs / float64(transfers)
	t.Logf("%.0f allocs over %d data transfers: %.2f per transfer", allocs, transfers, per)
	if per > 5 {
		t.Errorf("%.2f allocations per data transfer, want ≤ 5", per)
	}
}

// TestChaosAllreduceAllocs bounds the heap allocations of a lossy
// proc-mode allreduce per data transfer, world build included: the
// paper's Topology+ChainConfig tree on 128 Cori ranks, 256 KiB in 8 KiB
// eager segments, 1% drops under the default recovery and FEC at K=4.
// Every reliable transmission rides one pooled record, wire copies,
// parity shards and FEC groups recycle, and requests recycle once their
// records retire, so what is left per transfer is below the clean
// path's cost.
func TestChaosAllreduceAllocs(t *testing.T) {
	const size, seg = 256 << 10, 8 << 10
	p := netmodel.Cori(4)
	ranks := p.Topo.Size()
	tree := trees.Topology(p.Topo, 0, trees.ChainConfig())
	opt := core.DefaultOptions()
	opt.SegSize = seg
	plan := faults.MustParsePlan("seed=7; all: drop=0.01")
	transfers := 2 * (ranks - 1) * comm.NumSegments(size, seg)

	allocs := testing.AllocsPerRun(2, func() {
		k := sim.New()
		w := simmpi.NewWorld(k, p, noise.None)
		w.InstallFaults(plan, faults.DefaultRecovery())
		w.EnableFEC(fec.Config{K: 4})
		w.Spawn(func(c *simmpi.Comm) { core.StartAllreduce(c, tree, comm.Sized(size), opt).Wait() })
		k.MustRun()
	})
	per := allocs / float64(transfers)
	t.Logf("%.0f allocs over %d data transfers (%d ranks): %.2f per transfer", allocs, transfers, ranks, per)
	if per > 4 {
		t.Errorf("%.2f allocations per data transfer, want ≤ 4", per)
	}
}

// TestFlatStreamAllocsPerMessage: once warm, a clean point-to-point
// stream allocates nothing per message, eager or rendezvous. Requests,
// envelopes and transfer records all recycle, so a thousand more
// messages cost no more heap objects; a request some record forgets to
// release would cost one per message.
func TestFlatStreamAllocsPerMessage(t *testing.T) {
	tag := comm.MakeTag(comm.KindP2P, 0, 0)
	for _, size := range []int{1 << 10, 1 << 20} { // eager, rendezvous
		run := func(msgs int) float64 {
			return testing.AllocsPerRun(1, func() {
				k := sim.New()
				w := simmpi.NewWorld(k, netmodel.Cori(1), noise.None)
				w.SpawnFlat(func(c *simmpi.Comm) {
					if c.Rank() > 1 {
						return
					}
					n := 0
					var next func(comm.Status)
					next = func(comm.Status) {
						if n++; n > msgs {
							return
						}
						if c.Rank() == 0 {
							c.OnComplete(c.Isend(1, tag, comm.Sized(size)), next)
						} else {
							c.OnComplete(c.Irecv(0, tag), next)
						}
					}
					next(comm.Status{})
				})
				k.MustRun()
			})
		}
		per := (run(2000) - run(1000)) / 1000
		t.Logf("%d B messages: %.3f allocations per message", size, per)
		if per > 0.05 {
			t.Errorf("%d B messages: %.3f allocations per message once warm, want 0", size, per)
		}
	}
}
