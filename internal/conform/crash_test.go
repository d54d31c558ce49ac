package conform

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"adapt/internal/core"
	"adapt/internal/faults"
	"adapt/internal/hwloc"
	"adapt/internal/netmodel"
	"adapt/internal/perf"
	"adapt/internal/trees"
)

// Fail-stop survivor-set grid: worlds × payload sizes × FT collectives ×
// crash targets. Every cell must complete on the survivors with one
// agreed mask and bytes identical to the crash-free run.

func crashWorlds() []world {
	ws := []world{
		{"n8", netmodel.Cori(1).WithTopo(hwloc.New(8, 1, 1))},
	}
	if full() {
		ws = append(ws, world{"n12", netmodel.Cori(1).WithTopo(hwloc.New(12, 1, 1))})
	}
	return ws
}

// crashSegGrid keeps every rank's data phase at least four sends long, so
// the grid's afterK targets are guaranteed to fire before the root can
// commit (a post-commit crash is legal but tests nothing about repair).
func crashSegGrid() map[string]int {
	g := map[string]int{"seg256": 256}
	if full() {
		g["seg128"] = 128
	}
	return g
}

func treeFor(name string, n int) *trees.Tree {
	if strings.HasSuffix(name, "chain") {
		return trees.Chain(n, 0)
	}
	return trees.Binomial(n, 0)
}

// interiorRank picks the highest non-root rank with children — crashing
// it orphans a subtree, forcing re-parenting and segment re-drive.
func interiorRank(t *trees.Tree) int {
	for r := t.Size() - 1; r > 0; r-- {
		if !t.IsLeaf(r) {
			return r
		}
	}
	return t.Size() - 1 // two-rank tree: no interior, fall back to the leaf
}

// leafRank picks the highest leaf — crashing it exercises detection and
// commit without any tree repair traffic.
func leafRank(t *trees.Tree) int {
	for r := t.Size() - 1; r > 0; r-- {
		if t.IsLeaf(r) {
			return r
		}
	}
	panic("conform: tree has no non-root leaf")
}

// latticeSum is the analytic reduction of contribLattice restricted to
// the ranks mask marks live.
func latticeSum(mask []bool, size int) []byte {
	b := make([]byte, size)
	for i := 0; i < size/8; i++ {
		var v float64
		for r, live := range mask {
			if live {
				v += float64((r*31 + i) % 17)
			}
		}
		binary.LittleEndian.PutUint64(b[i*8:], math.Float64bits(v))
	}
	return b
}

func isReduceCase(cs CrashCase) bool { return strings.HasPrefix(cs.Name, "ft/reduce") }

// checkGoldenCrashRun validates the crash-free FT run: full mask, no
// errors, no detector activity.
func checkGoldenCrashRun(t *testing.T, golden CrashResult) {
	t.Helper()
	if golden.KernelErr != nil {
		t.Fatalf("golden run failed: %v", golden.KernelErr)
	}
	if golden.Det != (faults.DetectorStats{}) {
		t.Fatalf("golden run moved detector counters: %+v", golden.Det)
	}
	for r, m := range golden.Masks {
		for p, live := range m {
			if !live {
				t.Fatalf("golden run: rank %d reports rank %d dead", r, p)
			}
		}
		if golden.Errs[r] != nil {
			t.Fatalf("golden run: rank %d errored: %v", r, golden.Errs[r])
		}
	}
}

// checkSurvivorRun validates a crashed run against its golden twin: the
// survivors agree on a mask excluding exactly dead, bcast payloads stay
// byte-identical, and the reduce fold matches the survivor-set sum.
func checkSurvivorRun(t *testing.T, cs CrashCase, golden, got CrashResult, size int, dead ...int) {
	t.Helper()
	if got.KernelErr != nil {
		t.Fatalf("crash run did not terminate cleanly: %v", got.KernelErr)
	}
	n := len(got.Crashed)
	isDead := make([]bool, n)
	for _, d := range dead {
		isDead[d] = true
	}
	for r := 0; r < n; r++ {
		if got.Crashed[r] != isDead[r] {
			t.Fatalf("crash mask wrong at rank %d: crashed=%v want %v", r, got.Crashed[r], isDead[r])
		}
	}
	want := uint64(len(dead))
	if got.Det.Confirms != want || got.Det.Suspects != want || got.Det.Repairs != want {
		t.Fatalf("detector counters = %+v, want %d of each", got.Det, want)
	}
	for r := 0; r < n; r++ {
		if isDead[r] {
			continue
		}
		if got.Errs[r] != nil {
			t.Fatalf("survivor %d errored: %v", r, got.Errs[r])
		}
		if len(got.Masks[r]) != n {
			t.Fatalf("survivor %d mask has %d entries, want %d", r, len(got.Masks[r]), n)
		}
		for p, live := range got.Masks[r] {
			if live == isDead[p] {
				t.Fatalf("survivor %d mask[%d]=%v, want %v", r, p, live, !isDead[p])
			}
		}
	}
	if isReduceCase(cs) {
		wantSum := latticeSum(got.Masks[0], size)
		if !bytes.Equal(got.Out[0], wantSum) {
			t.Fatalf("root fold diverges from the survivor-set sum (first delta at %d)",
				firstDelta(got.Out[0], wantSum))
		}
		return
	}
	for r := 0; r < n; r++ {
		if isDead[r] {
			continue
		}
		if !bytes.Equal(got.Out[r], golden.Out[r]) {
			t.Fatalf("survivor %d payload diverges from golden (%d vs %d bytes, first delta at %d)",
				r, len(golden.Out[r]), len(got.Out[r]), firstDelta(golden.Out[r], got.Out[r]))
		}
	}
}

// TestCrashSurvivorGrid is the fail-stop tentpole check: across worlds,
// sizes, FT collectives, and crash targets (interior orphaning a
// subtree, leaf, and an interior killed at its very first send), the
// survivors must finish with golden bytes and one agreed mask.
func TestCrashSurvivorGrid(t *testing.T) {
	for _, w := range crashWorlds() {
		n := w.p.Topo.Size()
		for _, unit := range units() {
			size := unit * 8 * n
			for _, cs := range CrashCases(n, size) {
				tree := treeFor(cs.Name, n)
				targets := []struct {
					name        string
					rank, after int
				}{
					{"interior", interiorRank(tree), 1},
					{"leaf", leafRank(tree), 0},
					{"interior-first-send", interiorRank(tree), 0},
				}
				for segName, segSize := range crashSegGrid() {
					for _, tg := range targets {
						w, cs, segSize, tg := w, cs, segSize, tg
						name := fmt.Sprintf("%s/%s/%dB/%s/%s-crash@%d:after%d",
							w.name, cs.Name, size, segName, tg.name, tg.rank, tg.after)
						t.Run(name, func(t *testing.T) {
							t.Parallel()
							runCrashCell(t, w.p, cs, size, segSize, tg.rank, tg.after)
						})
					}
				}
			}
		}
	}
}

func runCrashCell(t *testing.T, p *netmodel.Platform, cs CrashCase, size, segSize, rank, after int) {
	opt := core.DefaultOptions()
	if segSize > 0 {
		opt.SegSize = segSize
	}
	golden := RunCrashCase(p, cs, opt, nil, faults.Recovery{})
	checkGoldenCrashRun(t, golden)
	plan := faults.MustParsePlan(fmt.Sprintf("seed=7; crash@%d:after%d", rank, after))
	got := RunCrashCase(p, cs, opt, &plan, faults.DefaultRecovery())
	checkSurvivorRun(t, cs, golden, got, size, rank)
	if got.Stats.Total() != 0 {
		t.Errorf("crash-only plan injected message faults: %v", got.Stats)
	}
}

// TestCrashRendezvousSized re-runs the interior crash with segments well
// past the eager limit, so re-driven traffic exercises the rendezvous
// protocol (and its cancel/annihilation edges) instead of eager copies.
func TestCrashRendezvousSized(t *testing.T) {
	p := netmodel.Cori(1).WithTopo(hwloc.New(4, 1, 1))
	n := p.Topo.Size()
	size := 2048 * 8 * n // 64 KB; two 32 KB segments, eager limit is 8 KB
	opt := core.DefaultOptions()
	opt.SegSize = 32 << 10
	for _, cs := range CrashCases(n, size) {
		cs := cs
		target := interiorRank(treeFor(cs.Name, n))
		t.Run(cs.Name, func(t *testing.T) {
			t.Parallel()
			golden := RunCrashCase(p, cs, opt, nil, faults.Recovery{})
			checkGoldenCrashRun(t, golden)
			plan := faults.MustParsePlan(fmt.Sprintf("seed=9; crash@%d", target))
			got := RunCrashCase(p, cs, opt, &plan, faults.DefaultRecovery())
			checkSurvivorRun(t, cs, golden, got, size, target)
		})
	}
}

// TestCrashRootAborts: a dead root is unrecoverable by design — every
// survivor must return a structured *faults.RankFailedError naming the
// root, and the kernel must still terminate (no hang, no leaked ops).
func TestCrashRootAborts(t *testing.T) {
	p := netmodel.Cori(1).WithTopo(hwloc.New(8, 1, 1))
	n := p.Topo.Size()
	size := 16 * 8 * n
	opt := core.DefaultOptions()
	opt.SegSize = 256
	for _, cs := range CrashCases(n, size) {
		cs := cs
		// The bcast root dies mid-fanout; the reduce root only initiates
		// sends at commit time, so after0 kills it there.
		after := 2
		if isReduceCase(cs) {
			after = 0
		}
		t.Run(cs.Name, func(t *testing.T) {
			t.Parallel()
			plan := faults.MustParsePlan(fmt.Sprintf("seed=5; crash@0:after%d", after))
			got := RunCrashCase(p, cs, opt, &plan, faults.DefaultRecovery())
			if got.KernelErr != nil {
				t.Fatalf("root-crash run did not terminate cleanly: %v", got.KernelErr)
			}
			if !got.Crashed[0] {
				t.Fatal("root did not crash")
			}
			for r := 1; r < n; r++ {
				var rf *faults.RankFailedError
				if !errors.As(got.Errs[r], &rf) {
					t.Fatalf("survivor %d: error = %v, want *faults.RankFailedError", r, got.Errs[r])
				}
				if rf.Rank != 0 {
					t.Fatalf("survivor %d blames rank %d, want root 0", r, rf.Rank)
				}
				if got.Out[r] != nil {
					t.Fatalf("survivor %d produced a payload despite the abort", r)
				}
			}
		})
	}
}

// TestCrashNeverFires: an armed crash rule whose send threshold is never
// reached must be invisible — full mask, golden bytes, zero detector
// counters.
func TestCrashNeverFires(t *testing.T) {
	p := netmodel.Cori(1).WithTopo(hwloc.New(8, 1, 1))
	n := p.Topo.Size()
	size := 16 * 8 * n
	opt := core.DefaultOptions()
	opt.SegSize = 256
	for _, cs := range CrashCases(n, size) {
		cs := cs
		t.Run(cs.Name, func(t *testing.T) {
			t.Parallel()
			golden := RunCrashCase(p, cs, opt, nil, faults.Recovery{})
			checkGoldenCrashRun(t, golden)
			plan := faults.MustParsePlan("seed=5; crash@4:after100000")
			got := RunCrashCase(p, cs, opt, &plan, faults.DefaultRecovery())
			checkGoldenCrashRun(t, got)
			checkSurvivorRun(t, cs, golden, got, size) // no dead ranks
		})
	}
}

// TestCrashScheduleDeterminism re-runs the same crash case from parallel
// goroutines — standing in for adaptbench -j N — and demands identical
// payloads, masks, detection counters, and virtual end time.
func TestCrashScheduleDeterminism(t *testing.T) {
	p := netmodel.Cori(1).WithTopo(hwloc.New(8, 1, 1))
	n := p.Topo.Size()
	size := 16 * 8 * n
	opt := core.DefaultOptions()
	opt.SegSize = 256
	for _, cs := range CrashCases(n, size) {
		cs := cs
		target := interiorRank(treeFor(cs.Name, n))
		t.Run(cs.Name, func(t *testing.T) {
			t.Parallel()
			plan := faults.MustParsePlan(fmt.Sprintf("seed=13; crash@%d:after1", target))
			ref := RunCrashCase(p, cs, opt, &plan, faults.DefaultRecovery())
			if ref.KernelErr != nil {
				t.Fatalf("reference run failed: %v", ref.KernelErr)
			}
			results := make(chan CrashResult, 4)
			for i := 0; i < 4; i++ {
				go func() { results <- RunCrashCase(p, cs, opt, &plan, faults.DefaultRecovery()) }()
			}
			for i := 0; i < 4; i++ {
				got := <-results
				if got.End != ref.End {
					t.Fatalf("virtual end time diverged: %v vs %v", got.End, ref.End)
				}
				if got.Det != ref.Det {
					t.Fatalf("detection schedule diverged: %+v vs %+v", got.Det, ref.Det)
				}
				for r := 0; r < n; r++ {
					if got.Crashed[r] != ref.Crashed[r] {
						t.Fatalf("crash schedule diverged at rank %d", r)
					}
					if !bytes.Equal(got.Out[r], ref.Out[r]) {
						t.Fatalf("rank %d payload diverged across re-runs", r)
					}
					if fmt.Sprint(got.Masks[r]) != fmt.Sprint(ref.Masks[r]) {
						t.Fatalf("rank %d mask diverged: %v vs %v", r, got.Masks[r], ref.Masks[r])
					}
				}
			}
		})
	}
}

// TestCleanRunDetectorCountersZero is the no-regression gate
// scripts/bench.sh relies on: without crash rules armed, neither the
// per-world detector counters nor the global perf counters may move.
func TestCleanRunDetectorCountersZero(t *testing.T) {
	p := netmodel.Cori(1).WithTopo(hwloc.New(8, 1, 1))
	n := p.Topo.Size()
	size := 16 * 8 * n
	perf.Reset()
	opt := core.DefaultOptions()
	opt.SegSize = 256
	for _, cs := range CrashCases(n, size) {
		golden := RunCrashCase(p, cs, opt, nil, faults.Recovery{})
		checkGoldenCrashRun(t, golden)
		// A message-fault plan with no crash rules must not arm the
		// detector either.
		plan := faults.MustParsePlan(plans[0].text)
		got := RunCrashCase(p, cs, opt, &plan, faults.DefaultRecovery())
		checkGoldenCrashRun(t, got)
	}
	if s := perf.Read(); s.DetectorTotal() != 0 {
		t.Fatalf("clean runs moved detector counters: suspects=%d confirms=%d repairs=%d",
			s.DetectorSuspects, s.DetectorConfirms, s.TreeRepairs)
	}
}
