//go:build !race

package simmpi_test

import (
	"testing"

	"adapt/internal/comm"
	"adapt/internal/core"
	"adapt/internal/netmodel"
	"adapt/internal/noise"
	"adapt/internal/sim"
	"adapt/internal/simmpi"
	"adapt/internal/trees"
)

// TestFlatAllreduceAllocs bounds the heap allocations of a clean flat
// allreduce per point-to-point data transfer, world build included. The
// transfer path recycles its hop and rendezvous records and the
// collectives bind their send callbacks once per stream, so what is left
// per transfer is the request handles and the per-receive completion
// closures. (Excluded under -race, which instruments allocations.)
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
	if per > 7 {
		t.Errorf("%.2f allocations per data transfer, want ≤ 7", per)
	}
}
