package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"adapt/internal/comm"
	"adapt/internal/faults"
	"adapt/internal/hwloc"
	"adapt/internal/netmodel"
	"adapt/internal/noise"
	"adapt/internal/runtime"
	"adapt/internal/sim"
	"adapt/internal/simmpi"
	"adapt/internal/trees"
)

// runCrashSim runs body on an n-rank simulated world with the given
// crash plan armed and returns the world (for detector inspection).
func runCrashSim(t *testing.T, n int, plan faults.Plan, body func(c *simmpi.Comm)) *simmpi.World {
	t.Helper()
	k := sim.New()
	w := simmpi.NewWorld(k, netmodel.Cori(1).WithTopo(hwloc.New(n, 1, 1)), noise.None)
	w.InstallFaults(plan, faults.Recovery{})
	w.Spawn(body)
	if _, err := k.Run(); err != nil {
		t.Fatalf("kernel: %v", err)
	}
	return w
}

func crashPlan(rules ...faults.Crash) faults.Plan {
	return faults.Plan{Crashes: rules}
}

// ftPayload builds the broadcast payload used across FT tests.
func ftPayload(n int) []byte { return payload(n, 1234) }

// checkSurvivorBcast asserts every survivor holds want, reports an
// identical mask excluding exactly deadRanks, and returned no error.
func checkSurvivorBcast(t *testing.T, n int, results map[int]FTResult, want []byte, deadRanks ...int) {
	t.Helper()
	dead := make(map[int]bool)
	for _, r := range deadRanks {
		dead[r] = true
	}
	for r := 0; r < n; r++ {
		res, ok := results[r]
		if dead[r] {
			if ok {
				t.Errorf("rank %d crashed but returned a result", r)
			}
			continue
		}
		if !ok {
			t.Fatalf("rank %d returned no result", r)
		}
		if res.Err != nil {
			t.Fatalf("rank %d: %v", r, res.Err)
		}
		if !bytes.Equal(res.Msg.Data, want) && len(want) > 0 {
			t.Errorf("rank %d: payload diverges (%d vs %d bytes)", r, len(res.Msg.Data), len(want))
		}
		for q := 0; q < n; q++ {
			if res.Survivors[q] == dead[q] {
				t.Errorf("rank %d: survivor mask[%d] = %v with dead=%v", r, q, res.Survivors[q], dead[q])
			}
		}
	}
}

func bcastFTBody(tree *trees.Tree, want []byte, results map[int]FTResult, mu *sync.Mutex) func(c *simmpi.Comm) {
	return func(c *simmpi.Comm) {
		opt := DefaultOptions()
		opt.SegSize = 8 << 10 // several segments; rendezvous above eager limit
		var msg comm.Msg
		if c.Rank() == tree.Root {
			msg = comm.Bytes(append([]byte(nil), want...))
		} else {
			msg = comm.Sized(len(want))
		}
		res := BcastFT(c, tree, msg, opt)
		mu.Lock()
		results[c.Rank()] = res
		mu.Unlock()
	}
}

func TestBcastFTCrashInterior(t *testing.T) {
	// Binomial(8, 0): 4 is interior with children {5, 6}; killing it
	// re-parents both to the root and re-drives their missing segments.
	for _, after := range []int{0, 1, 3} {
		t.Run(fmt.Sprintf("after%d", after), func(t *testing.T) {
			tree := trees.Binomial(8, 0)
			want := ftPayload(100_000)
			results := map[int]FTResult{}
			var mu sync.Mutex
			w := runCrashSim(t, 8, crashPlan(faults.Crash{Rank: 4, AfterSends: after}),
				bcastFTBody(tree, want, results, &mu))
			checkSurvivorBcast(t, 8, results, want, 4)
			det := w.DetectorStats()
			if det.Confirms != 1 || det.Repairs != 1 {
				t.Errorf("detector: %+v, want 1 confirm / 1 repair", det)
			}
			if crashed := w.Crashed(); !crashed[4] {
				t.Error("rank 4 not marked crashed")
			}
		})
	}
}

func TestBcastFTCrashLeaf(t *testing.T) {
	// Leaf 7's first send initiation is its done report: it holds the
	// full payload but dies before telling the root.
	tree := trees.Binomial(8, 0)
	want := ftPayload(50_000)
	results := map[int]FTResult{}
	var mu sync.Mutex
	runCrashSim(t, 8, crashPlan(faults.Crash{Rank: 7}),
		bcastFTBody(tree, want, results, &mu))
	checkSurvivorBcast(t, 8, results, want, 7)
}

func TestBcastFTCrashRootAborts(t *testing.T) {
	tree := trees.Binomial(8, 0)
	want := ftPayload(64_000)
	results := map[int]FTResult{}
	var mu sync.Mutex
	runCrashSim(t, 8, crashPlan(faults.Crash{Rank: 0, AfterSends: 2}),
		bcastFTBody(tree, want, results, &mu))
	for r := 1; r < 8; r++ {
		res, ok := results[r]
		if !ok {
			t.Fatalf("rank %d returned no result", r)
		}
		var rf *faults.RankFailedError
		if !errors.As(res.Err, &rf) {
			t.Fatalf("rank %d: err = %v, want RankFailedError", r, res.Err)
		}
		if rf.Rank != 0 || rf.Kind != comm.KindBcast {
			t.Errorf("rank %d: %+v", r, rf)
		}
	}
}

func TestBcastFTCrashNeverFires(t *testing.T) {
	// A schedule the rank never reaches: clean completion, full mask,
	// zero detector activity.
	tree := trees.Binomial(8, 0)
	want := ftPayload(30_000)
	results := map[int]FTResult{}
	var mu sync.Mutex
	w := runCrashSim(t, 8, crashPlan(faults.Crash{Rank: 7, AfterSends: 99}),
		bcastFTBody(tree, want, results, &mu))
	checkSurvivorBcast(t, 8, results, want)
	if det := w.DetectorStats(); det != (faults.DetectorStats{}) {
		t.Errorf("detector moved on a crash that never fired: %+v", det)
	}
}

func TestBcastFTChainOfDeaths(t *testing.T) {
	// Two interior deaths on a chain: 3 must re-parent twice (2 dies,
	// then 1) and still deliver.
	tree := trees.Chain(6, 0)
	want := ftPayload(40_000)
	results := map[int]FTResult{}
	var mu sync.Mutex
	runCrashSim(t, 6,
		crashPlan(faults.Crash{Rank: 2, AfterSends: 1}, faults.Crash{Rank: 1, AfterSends: 6}),
		bcastFTBody(tree, want, results, &mu))
	checkSurvivorBcast(t, 6, results, want, 1, 2)
}

// sumLattice computes the expected float64 sum over a survivor set.
func sumLattice(ranks []int, size int) []byte {
	out := make([]byte, size)
	for i := 0; i < size/8; i++ {
		var v float64
		for _, r := range ranks {
			v += float64((r*31 + i) % 17)
		}
		binary.LittleEndian.PutUint64(out[i*8:], math.Float64bits(v))
	}
	return out
}

func latticeFor(rank, size int) []byte {
	b := make([]byte, size)
	for i := 0; i < size/8; i++ {
		v := float64((rank*31 + i) % 17)
		binary.LittleEndian.PutUint64(b[i*8:], math.Float64bits(v))
	}
	return b
}

func reduceFTBody(tree *trees.Tree, size int, results map[int]FTResult, mu *sync.Mutex) func(c *simmpi.Comm) {
	return func(c *simmpi.Comm) {
		opt := DefaultOptions()
		opt.SegSize = 8 << 10
		res := ReduceFT(c, tree, comm.Bytes(latticeFor(c.Rank(), size)), opt)
		mu.Lock()
		results[c.Rank()] = res
		mu.Unlock()
	}
}

func TestReduceFTCrashInterior(t *testing.T) {
	tree := trees.Binomial(8, 0)
	const size = 32_000
	results := map[int]FTResult{}
	var mu sync.Mutex
	runCrashSim(t, 8, crashPlan(faults.Crash{Rank: 4, AfterSends: 1}),
		reduceFTBody(tree, size, results, &mu))

	root := results[0]
	if root.Err != nil {
		t.Fatalf("root: %v", root.Err)
	}
	// The root's fold must equal the analytic sum over exactly the mask
	// it reported (race-free even if a rank died after contributing).
	var folded []int
	for r, live := range root.Survivors {
		if live {
			folded = append(folded, r)
		}
	}
	if want := sumLattice(folded, size); !bytes.Equal(root.Msg.Data, want) {
		t.Errorf("root result does not equal the fold over its reported mask %v", root.Survivors)
	}
	for r := 1; r < 8; r++ {
		if r == 4 {
			continue
		}
		res := results[r]
		if res.Err != nil {
			t.Fatalf("rank %d: %v", r, res.Err)
		}
		for q := range res.Survivors {
			if res.Survivors[q] != root.Survivors[q] {
				t.Errorf("rank %d mask diverges from root at %d", r, q)
			}
		}
	}
	if root.Survivors[4] {
		t.Error("dead rank 4 reported as survivor")
	}
}

func TestReduceFTCrashLeafAndRoot(t *testing.T) {
	const size = 16_000
	t.Run("leaf", func(t *testing.T) {
		tree := trees.Binomial(8, 0)
		results := map[int]FTResult{}
		var mu sync.Mutex
		runCrashSim(t, 8, crashPlan(faults.Crash{Rank: 7}),
			reduceFTBody(tree, size, results, &mu))
		root := results[0]
		if root.Err != nil || root.Survivors[7] {
			t.Fatalf("root: err=%v mask=%v", root.Err, root.Survivors)
		}
		if want := sumLattice([]int{0, 1, 2, 3, 4, 5, 6}, size); !bytes.Equal(root.Msg.Data, want) {
			t.Error("root fold does not match the 7-survivor sum")
		}
	})
	t.Run("root", func(t *testing.T) {
		tree := trees.Binomial(8, 0)
		results := map[int]FTResult{}
		var mu sync.Mutex
		runCrashSim(t, 8, crashPlan(faults.Crash{Rank: 0, AfterSends: 0}),
			reduceFTBody(tree, size, results, &mu))
		for r := 1; r < 8; r++ {
			var rf *faults.RankFailedError
			if !errors.As(results[r].Err, &rf) || rf.Rank != 0 || rf.Kind != comm.KindReduce {
				t.Fatalf("rank %d: err = %v", r, results[r].Err)
			}
		}
	})
}

// TestFTDeterministicSchedule: the same seed/plan yields the same end
// time, detector schedule and masks on every run.
func TestFTDeterministicSchedule(t *testing.T) {
	run := func() (time.Duration, faults.DetectorStats, map[int]FTResult) {
		tree := trees.Binomial(8, 0)
		want := ftPayload(64_000)
		results := map[int]FTResult{}
		var mu sync.Mutex
		k := sim.New()
		w := simmpi.NewWorld(k, netmodel.Cori(1).WithTopo(hwloc.New(8, 1, 1)), noise.None)
		w.InstallFaults(crashPlan(faults.Crash{Rank: 4, AfterSends: 2}), faults.Recovery{})
		w.Spawn(bcastFTBody(tree, want, results, &mu))
		end, err := k.Run()
		if err != nil {
			t.Fatalf("kernel: %v", err)
		}
		return end, w.DetectorStats(), results
	}
	end0, det0, res0 := run()
	for i := 0; i < 3; i++ {
		end, det, res := run()
		if end != end0 || det != det0 {
			t.Fatalf("run %d: schedule diverged (%v/%v vs %v/%v)", i, end, det, end0, det0)
		}
		for r, a := range res0 {
			b := res[r]
			if !bytes.Equal(a.Msg.Data, b.Msg.Data) {
				t.Fatalf("run %d rank %d: payload diverged", i, r)
			}
		}
	}
}

// TestBcastFTFallbackLive: without crash rules the FT wrappers are the
// plain collectives plus an all-true mask — on both substrates.
func TestBcastFTFallbackLive(t *testing.T) {
	const n, size = 5, 40_000
	tree := trees.Binary(n, 0)
	want := ftPayload(size)
	w := runtime.NewWorld(n)
	results := map[int]FTResult{}
	var mu sync.Mutex
	w.Run(func(c *runtime.Comm) {
		var msg comm.Msg
		if c.Rank() == 0 {
			msg = comm.Bytes(append([]byte(nil), want...))
		} else {
			msg = comm.Sized(size)
		}
		res := BcastFT(c, tree, msg, DefaultOptions())
		mu.Lock()
		results[c.Rank()] = res
		mu.Unlock()
	})
	for r := 0; r < n; r++ {
		res := results[r]
		if res.Err != nil || !bytes.Equal(res.Msg.Data, want) {
			t.Fatalf("rank %d: err=%v, %d bytes", r, res.Err, len(res.Msg.Data))
		}
		for q, live := range res.Survivors {
			if !live {
				t.Errorf("rank %d: mask[%d] false in a clean run", r, q)
			}
		}
	}
}

// TestReduceFTCrashLive exercises the crash machinery on the live
// goroutine substrate end to end.
func TestReduceFTCrashLive(t *testing.T) {
	const n, size = 6, 8_000
	tree := trees.Binomial(n, 0)
	plan := crashPlan(faults.Crash{Rank: 2, AfterSends: 0})
	rec := faults.Recovery{RTO: 200 * time.Microsecond}
	w := runtime.NewWorld(n, runtime.WithFaults(plan, rec), runtime.WithRunTimeout(20*time.Second))
	results := map[int]FTResult{}
	var mu sync.Mutex
	w.Run(func(c *runtime.Comm) {
		res := ReduceFT(c, tree, comm.Bytes(latticeFor(c.Rank(), size)), DefaultOptions())
		mu.Lock()
		results[c.Rank()] = res
		mu.Unlock()
	})
	root, ok := results[0]
	if !ok {
		t.Fatal("root returned no result")
	}
	if root.Err != nil {
		t.Fatalf("root: %v", root.Err)
	}
	var folded []int
	for r, live := range root.Survivors {
		if live {
			folded = append(folded, r)
		}
	}
	if want := sumLattice(folded, size); !bytes.Equal(root.Msg.Data, want) {
		t.Errorf("root result does not match fold over reported mask %v", root.Survivors)
	}
	if det := w.DetectorStats(); det.Confirms != 1 {
		t.Errorf("detector confirms = %d, want 1", det.Confirms)
	}
}
