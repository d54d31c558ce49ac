package conform

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"adapt/internal/comm"
	"adapt/internal/core"
	"adapt/internal/faults"
	"adapt/internal/hwloc"
	"adapt/internal/netmodel"
	"adapt/internal/perf"
	"adapt/internal/trees"
)

// The grid: world shapes × payload sizes × segment counts × fault plans.
// ADAPT_CONFORM_FULL=1 widens every axis (make race runs it so).

func full() bool { return os.Getenv("ADAPT_CONFORM_FULL") != "" }

type world struct {
	name string
	p    *netmodel.Platform
}

func worlds() []world {
	ws := []world{
		{"n4", netmodel.Cori(1).WithTopo(hwloc.New(2, 1, 2))},
	}
	if full() {
		ws = append(ws, world{"n7", netmodel.Cori(1).WithTopo(hwloc.New(7, 1, 1))})
	}
	return ws
}

// units scale the payload: size = unit × 8 × ranks, so reductions and
// ring algorithms always divide evenly. 33 makes the last pipeline
// segment short (a distinct protocol path).
func units() []int {
	if full() {
		return []int{16, 33}
	}
	return []int{16}
}

var plans = []struct{ name, text string }{
	{"lossy", "seed=11; all: drop=0.15, dup=0.1, jitter=20us"},
	{"edge-degraded", "seed=23; link 0->1: drop=0.4, delay=40us@0.5; all: dup=0.05"},
}

func segGrid() map[string]int {
	return map[string]int{"1seg": 0, "seg256": 256}
}

// TestConformanceGrid is the tentpole check: for every collective, every
// faulted run must reproduce the golden no-fault bytes exactly — the
// recovery machinery may only cost time.
func TestConformanceGrid(t *testing.T) {
	for _, w := range worlds() {
		n := w.p.Topo.Size()
		for _, unit := range units() {
			size := unit * 8 * n
			for _, cs := range Cases(w.p.Topo, size) {
				for segName, segSize := range segGrid() {
					w, cs, segSize := w, cs, segSize
					t.Run(fmt.Sprintf("%s/%s/%dB/%s", w.name, cs.Name, size, segName), func(t *testing.T) {
						t.Parallel()
						runGridCell(t, w.p, cs, segSize)
					})
				}
			}
		}
	}
}

// TestConformanceGridGPU runs the device-path collectives on the PSG
// GPU machine shape.
func TestConformanceGridGPU(t *testing.T) {
	p := netmodel.PSG(1) // 1 node × 2 sockets × 2 GPUs = 4 ranks
	size := 16 * 8 * p.Topo.Size()
	for _, cs := range GPUCases(p.Topo, size) {
		for segName, segSize := range segGrid() {
			cs, segSize := cs, segSize
			t.Run(fmt.Sprintf("%s/%s", cs.Name, segName), func(t *testing.T) {
				t.Parallel()
				runGridCell(t, p, cs, segSize)
			})
		}
	}
}

func runGridCell(t *testing.T, p *netmodel.Platform, cs Case, segSize int) {
	opt := core.DefaultOptions()
	if segSize > 0 {
		opt.SegSize = segSize
	}
	golden := RunCase(p, cs, opt, nil, faults.Recovery{})
	if golden.Err != nil {
		t.Fatalf("golden run failed: %v", golden.Err)
	}
	if golden.Stats.Total() != 0 {
		t.Fatalf("golden run injected faults: %v", golden.Stats)
	}
	for _, pl := range plans {
		plan := faults.MustParsePlan(pl.text)
		got := RunCase(p, cs, opt, &plan, faults.DefaultRecovery())
		if d := Diff(golden, got); d != "" {
			t.Errorf("plan %s: %s (faults: %v)", pl.name, d, got.Stats)
		}
		if len(got.Failures) != 0 {
			t.Errorf("plan %s: unrecovered losses under DefaultRecovery: %v", pl.name, got.Failures[0])
		}
	}
}

// TestFaultScheduleDeterminism re-runs the same (case, plan) repeatedly —
// including from parallel goroutines, standing in for adapt bench -j N —
// and demands identical bytes, identical virtual end time, and identical
// fault schedules.
func TestFaultScheduleDeterminism(t *testing.T) {
	p := netmodel.Cori(1).WithTopo(hwloc.New(2, 1, 2))
	size := 16 * 8 * p.Topo.Size()
	plan := faults.MustParsePlan(plans[0].text)
	opt := core.DefaultOptions()
	opt.SegSize = 256
	for _, cs := range Cases(p.Topo, size)[:6] {
		cs := cs
		t.Run(cs.Name, func(t *testing.T) {
			t.Parallel()
			ref := RunCase(p, cs, opt, &plan, faults.DefaultRecovery())
			if ref.Err != nil {
				t.Fatalf("run failed: %v", ref.Err)
			}
			results := make(chan Result, 4)
			for i := 0; i < 4; i++ {
				go func() { results <- RunCase(p, cs, opt, &plan, faults.DefaultRecovery()) }()
			}
			for i := 0; i < 4; i++ {
				got := <-results
				if d := Diff(ref, got); d != "" {
					t.Fatalf("re-run diverged: %s", d)
				}
				if got.End != ref.End {
					t.Fatalf("virtual end time diverged: %v vs %v", got.End, ref.End)
				}
				if got.Stats != ref.Stats {
					t.Fatalf("fault schedule diverged: %v vs %v", got.Stats, ref.Stats)
				}
			}
			if ref.Stats.Total() == 0 {
				t.Logf("note: plan injected nothing for %s", cs.Name)
			}
		})
	}
}

// TestFaultsActuallyInjected guards against the whole harness silently
// testing the fault-free path: across the grid's cases, the lossy plan
// must inject a substantial number of faults and recover via retries.
func TestFaultsActuallyInjected(t *testing.T) {
	p := netmodel.Cori(1).WithTopo(hwloc.New(2, 1, 2))
	size := 16 * 8 * p.Topo.Size()
	plan := faults.MustParsePlan(plans[0].text)
	opt := core.DefaultOptions()
	opt.SegSize = 256
	var agg faults.Stats
	for _, cs := range Cases(p.Topo, size) {
		got := RunCase(p, cs, opt, &plan, faults.DefaultRecovery())
		if got.Err != nil {
			t.Fatalf("%s: %v", cs.Name, got.Err)
		}
		agg.Drops += got.Stats.Drops
		agg.Dups += got.Stats.Dups
		agg.Delays += got.Stats.Delays
		agg.Retries += got.Stats.Retries
		agg.Suppressed += got.Stats.Suppressed
	}
	if agg.Drops == 0 || agg.Dups == 0 || agg.Retries == 0 || agg.Suppressed == 0 {
		t.Fatalf("grid exercised too little of the fault machinery: %v", agg)
	}
}

// TestCleanRunFaultCountersZero is the clean-run fault gate: without an
// installed plan, the fault counters must not move.
func TestCleanRunFaultCountersZero(t *testing.T) {
	p := netmodel.Cori(1).WithTopo(hwloc.New(2, 1, 2))
	size := 16 * 8 * p.Topo.Size()
	perf.Reset()
	opt := core.DefaultOptions()
	opt.SegSize = 256
	for _, cs := range Cases(p.Topo, size) {
		if res := RunCase(p, cs, opt, nil, faults.Recovery{}); res.Err != nil {
			t.Fatalf("%s: %v", cs.Name, res.Err)
		}
	}
	if s := perf.Read(); s.FaultTotal() != 0 {
		t.Fatalf("clean runs moved fault counters: drops=%d dups=%d delays=%d retries=%d timeouts=%d suppressed=%d",
			s.FaultDrops, s.FaultDups, s.FaultDelays, s.FaultRetries, s.FaultTimeouts, s.FaultSuppressed)
	}
}

// TestDropAllEdgeFailsStructured is the bounded-failure acceptance test:
// a black-holed tree edge with retries disabled must produce a structured
// timeout naming (rank, peer, tag kind, segment) — and the simulation
// must terminate, not hang.
func TestDropAllEdgeFailsStructured(t *testing.T) {
	p := netmodel.Cori(1).WithTopo(hwloc.New(4, 1, 1))
	size := 16 * 8 * p.Topo.Size()
	chain := trees.Chain(4, 0) // edges 0→1→2→3; kill the first one
	cs := Case{
		Name: "bcast-chain-root0",
		In:   rootData("bcast-chain-root0", 0, size),
		Run: func(c comm.Comm, in comm.Msg, opt core.Options) comm.Msg {
			return core.Bcast(c, chain, in, opt)
		},
	}
	plan := faults.MustParsePlan("seed=3; link 0->1: drop=1")
	opt := core.DefaultOptions()
	opt.SegSize = 256
	start := time.Now()
	res := RunCase(p, cs, opt, &plan, faults.NoRecovery())
	if wall := time.Since(start); wall > 30*time.Second {
		t.Fatalf("failure case took %v wall time", wall)
	}
	if res.Err == nil {
		t.Fatal("black-holed edge completed successfully")
	}
	if !strings.Contains(res.Err.Error(), "rank-1") {
		t.Errorf("deadlock report does not name the starved rank: %v", res.Err)
	}
	if len(res.Failures) == 0 {
		t.Fatal("no structured failures recorded")
	}
	f := res.Failures[0]
	if f.Rank != 0 || f.Peer != 1 {
		t.Errorf("failure names edge %d->%d, want 0->1", f.Rank, f.Peer)
	}
	if f.Tag.Kind() != comm.KindBcast {
		t.Errorf("failure tag kind = %v, want bcast", f.Tag.Kind())
	}
	if f.Attempts != 1 {
		t.Errorf("attempts = %d with retries disabled", f.Attempts)
	}
	var te *faults.TimeoutError
	if !errors.As(error(f), &te) {
		t.Error("failure is not a *faults.TimeoutError")
	}
	msg := f.Error()
	for _, want := range []string{"rank 0 -> 1", "bcast", "segment"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q missing %q", msg, want)
		}
	}
	if res.Stats.Timeouts == 0 {
		t.Error("timeout counter did not move")
	}
}

// TestDropAllRecoveredByRetries: the same dead-edge scenario except the
// drop is probabilistic — DefaultRecovery's attempt budget must push the
// collective through with zero result corruption.
func TestDropAllRecoveredByRetries(t *testing.T) {
	p := netmodel.Cori(1).WithTopo(hwloc.New(4, 1, 1))
	size := 16 * 8 * p.Topo.Size()
	chain := trees.Chain(4, 0)
	cs := Case{
		Name: "bcast-chain-heavy-loss",
		In:   rootData("bcast-chain-heavy-loss", 0, size),
		Run: func(c comm.Comm, in comm.Msg, opt core.Options) comm.Msg {
			return core.Bcast(c, chain, in, opt)
		},
	}
	opt := core.DefaultOptions()
	opt.SegSize = 256
	golden := RunCase(p, cs, opt, nil, faults.Recovery{})
	if golden.Err != nil {
		t.Fatalf("golden: %v", golden.Err)
	}
	plan := faults.MustParsePlan("seed=5; link 0->1: drop=0.5")
	got := RunCase(p, cs, opt, &plan, faults.DefaultRecovery())
	if d := Diff(golden, got); d != "" {
		t.Fatalf("heavy loss corrupted results: %s", d)
	}
	if got.Stats.Retries == 0 {
		t.Fatal("50%% loss recovered without a single retry")
	}
	if len(got.Failures) != 0 {
		t.Fatalf("unrecovered loss under DefaultRecovery: %v", got.Failures[0])
	}
}
