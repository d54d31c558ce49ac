//go:build !pooldebug

// The reuse-order tests pin the default build: under pooldebug the
// quarantine holds a recycled group back from the next open.

package fec

import "testing"

// TestFramerRecycleWaitsForIdleFlush: a group recycled while its idle
// flush is still armed is not reissued until that flush fires, and the
// stale flush does not seal the link's newer group. Once the flush has
// fired, the next group on any link reuses the recycled one.
func TestFramerRecycleWaitsForIdleFlush(t *testing.T) {
	var ctr Counters
	var timers manualTimers
	f, sealed := testFramer(&ctr, &timers)
	for i := 0; i < 3; i++ {
		f.Add(0, 1, i, shard(i))
	}
	g1 := (*sealed)[0]
	g1.ParityFate(0, true)
	g1.ParityFate(1, true)
	f.Recycle(g1) // its idle flush (timers.fns[0]) is still armed

	f.Add(0, 1, 10, shard(0)) // opens group 2 on the same link
	g2 := f.open[linkKey(0, 1)]
	if g2 == g1 {
		t.Fatal("group recycled with its idle flush armed was reissued before the flush fired")
	}
	timers.fns[0]() // the stale flush of group 1
	if len(*sealed) != 1 || f.open[linkKey(0, 1)] != g2 || len(g2.Members) != 1 {
		t.Fatalf("stale idle flush touched the link's open group: %d seals", len(*sealed))
	}

	f.Add(2, 3, 20, shard(1)) // the stale flush returned group 1 for reuse
	if g3 := f.open[linkKey(2, 3)]; g3 != g1 || g3.ID != 3 || len(g3.Members) != 1 || g3.Members[0] != 20 {
		t.Fatalf("next group did not reuse the recycled one (reused %v)", g3 == g1)
	}
	timers.fns[1]() // group 2's own flush still seals it
	timers.fns[2]()
	if len(*sealed) != 3 || (*sealed)[1] != g2 || (*sealed)[2] != g1 || g1.Src != 2 {
		t.Fatalf("want groups 2 then 3 flushed, got %d seals", len(*sealed))
	}
}

// TestFramerRecycleAfterFlush: a group whose flush already fired goes
// straight back for reuse, with its slices emptied and its parity
// buffers released.
func TestFramerRecycleAfterFlush(t *testing.T) {
	var ctr Counters
	var timers manualTimers
	f, sealed := testFramer(&ctr, &timers)
	f.Add(0, 1, 0, shard(0))
	timers.fns[0]() // flush seals a one-member group
	g := (*sealed)[0]
	g.ParityFate(0, false)
	g.ParityFate(1, true)
	f.Recycle(g)
	if f.Outstanding() != 0 || len(g.Members) != 0 || len(g.Shards) != 0 || len(g.Parity) != 0 {
		t.Fatalf("recycled group not emptied and freed: outstanding %d, members %d, shards %d, parity %d",
			f.Outstanding(), len(g.Members), len(g.Shards), len(g.Parity))
	}
	for i := 0; i < 3; i++ {
		f.Add(0, 1, i, shard(i))
	}
	if len(*sealed) != 2 || (*sealed)[1] != g || g.ID != 2 || len(g.Parity) != 2 || g.ParitySettled() {
		t.Fatalf("reissued group %+v", g)
	}
}
