package bench

import (
	"fmt"
	"io"
	"sort"
	"time"

	"adapt/internal/asp"
	"adapt/internal/faults"
	"adapt/internal/imb"
	"adapt/internal/libmodel"
	"adapt/internal/netmodel"
	"adapt/internal/noise"
	"adapt/internal/sim"
	"adapt/internal/simmpi"
)

// Scale sets the machine sizes and repetition counts. Full is the paper's
// configuration; Quick shrinks everything for tests and Go benchmarks.
type Scale struct {
	CoriNodes      int
	Stampede2Nodes int
	PSGNodes       int
	NoiseReps      int // repetitions inside the noise experiment's train
	Reps           int // 0 → imb.DefaultReps per size
	Sizes          []int
	GPUSizes       []int
	ASPIters       int
	ASPDim         int

	// FaultPlan, when non-nil, adds a custom row to the ext-chaos exhibit
	// (adapt bench -faults "seed=42; all: drop=0.1"); a plan with crash
	// rules (adapt bench -faults "crash@3") lands in ext-crash instead.
	FaultPlan *faults.Plan

	// CTrace, when non-nil, captures one causal event trace per
	// experiment cell (adapt bench -ctrace; see internal/trace/analyze).
	CTrace *TraceSink

	// sweep, when non-nil, routes independent experiment cells through
	// the parallel record/execute/replay scheduler (see parallel.go).
	sweep *sweeper
}

// Full reproduces the paper's published configuration: 1024 ranks on
// Cori, 1536 on Stampede2, 32 GPUs on PSG.
func Full() Scale {
	return Scale{
		CoriNodes: 32, Stampede2Nodes: 32, PSGNodes: 8,
		NoiseReps: 12,
		Sizes: []int{64 * netmodel.KB, 128 * netmodel.KB, 256 * netmodel.KB,
			512 * netmodel.KB, 1 * netmodel.MB, 2 * netmodel.MB, 4 * netmodel.MB},
		GPUSizes: []int{1 * netmodel.MB, 2 * netmodel.MB, 4 * netmodel.MB,
			8 * netmodel.MB, 16 * netmodel.MB, 32 * netmodel.MB},
		ASPIters: 128, ASPDim: 16384,
	}
}

// Quick is a reduced configuration for fast regression runs.
func Quick() Scale {
	return Scale{
		CoriNodes: 4, Stampede2Nodes: 4, PSGNodes: 2,
		NoiseReps: 4, Reps: 2,
		Sizes:    []int{256 * netmodel.KB, 1 * netmodel.MB, 4 * netmodel.MB},
		GPUSizes: []int{4 * netmodel.MB, 32 * netmodel.MB},
		ASPIters: 16, ASPDim: 2048,
	}
}

// NoiseFraction is the share of ranks carrying the §5.1.1 injector. See
// the calibration note on noise.Spec.Fraction.
const NoiseFraction = 0.02

func (s Scale) noiseSpec(pct int) noise.Spec {
	spec := noise.Percent(pct)
	spec.Fraction = NoiseFraction
	return spec
}

func (s Scale) measure(p *netmodel.Platform, spec noise.Spec, lib libmodel.Library, op imb.Op, size, reps int) time.Duration {
	warmup := 1
	if reps == 0 {
		if s.Reps > 0 {
			reps = s.Reps
		} else {
			warmup, reps = imb.DefaultReps(size)
		}
	}
	cfg := imb.Config{
		Platform: p, Noise: spec, Library: lib, Op: op,
		Size: size, Warmup: warmup, Reps: reps,
	}
	name := fmt.Sprintf("%s/%s/%s/%s/noise%.0f%%",
		p.Name, lib.Name, opSlug(op), sizeLabel(size), 100*spec.AvgFraction())
	return s.cell(func() any {
		tb := s.traceBuffer()
		cfg.Trace = tb
		return wrapTraced(imb.Measure(cfg), tb, name)
	}, time.Duration(0)).(time.Duration)
}

// noiseTable builds one half (bcast or reduce) of Figure 7.
func (s Scale) noiseTable(id string, p *netmodel.Platform, op imb.Op) *Table {
	t := &Table{
		ID:     id,
		Title:  fmt.Sprintf("%s with CPU data under noise injection, 4MB, %d ranks (%s)", op, p.Topo.Size(), p.Name),
		Header: []string{"library", "no-noise ms", "5% ms", "5% slow", "10% ms", "10% slow"},
		Notes: []string{
			fmt.Sprintf("noise: U(0,10ms)/U(0,20ms) @ 10Hz on a %.0f%% rank subset (see EXPERIMENTS.md)", 100*NoiseFraction),
		},
	}
	for _, lib := range libmodel.CPULibraries(p) {
		base := s.measure(p, s.noiseSpec(0), lib, op, 4*netmodel.MB, s.NoiseReps)
		n5 := s.measure(p, s.noiseSpec(5), lib, op, 4*netmodel.MB, s.NoiseReps)
		n10 := s.measure(p, s.noiseSpec(10), lib, op, 4*netmodel.MB, s.NoiseReps)
		t.AddRow(lib.Name, ms(base), ms(n5), pct(base, n5), ms(n10), pct(base, n10))
	}
	return t
}

// Fig7a: noise impact on Cori (paper Figure 7a).
func (s Scale) Fig7a() []*Table {
	p := netmodel.Cori(s.CoriNodes)
	return []*Table{
		s.noiseTable("fig7a-bcast", p, imb.Bcast),
		s.noiseTable("fig7a-reduce", p, imb.Reduce),
	}
}

// Fig7b: noise impact on Stampede2 (paper Figure 7b).
func (s Scale) Fig7b() []*Table {
	p := netmodel.Stampede2(s.Stampede2Nodes)
	return []*Table{
		s.noiseTable("fig7b-bcast", p, imb.Bcast),
		s.noiseTable("fig7b-reduce", p, imb.Reduce),
	}
}

// sizeSweep builds a libraries × message-sizes grid.
func (s Scale) sizeSweep(id, title string, p *netmodel.Platform, libs []libmodel.Library, op imb.Op, sizes []int) *Table {
	t := &Table{ID: id, Title: title, Header: []string{"library"}}
	for _, sz := range sizes {
		t.Header = append(t.Header, sizeLabel(sz)+" ms")
	}
	for _, lib := range libs {
		row := []string{lib.Name}
		for _, sz := range sizes {
			row = append(row, ms(s.measure(p, noise.None, lib, op, sz, 0)))
		}
		t.AddRow(row...)
	}
	return t
}

func sizeLabel(sz int) string {
	switch {
	case sz >= netmodel.MB:
		return fmt.Sprintf("%dM", sz/netmodel.MB)
	case sz >= netmodel.KB:
		return fmt.Sprintf("%dK", sz/netmodel.KB)
	default:
		return fmt.Sprintf("%dB", sz)
	}
}

// fig8 builds the topology-aware comparison (paper Figure 8).
func (s Scale) fig8(id string, p *netmodel.Platform) []*Table {
	return []*Table{
		s.sizeSweep(id+"-bcast",
			fmt.Sprintf("Topology-aware Broadcast vs message size, %d ranks (%s)", p.Topo.Size(), p.Name),
			p, libmodel.TopoComparisonSet(p, false), imb.Bcast, s.Sizes),
		s.sizeSweep(id+"-reduce",
			fmt.Sprintf("Topology-aware Reduce vs message size, %d ranks (%s)", p.Topo.Size(), p.Name),
			p, libmodel.TopoComparisonSet(p, true), imb.Reduce, s.Sizes),
	}
}

// Fig8a / Fig8b: topology-aware line-ups on Cori and Stampede2.
func (s Scale) Fig8a() []*Table { return s.fig8("fig8a", netmodel.Cori(s.CoriNodes)) }
func (s Scale) Fig8b() []*Table { return s.fig8("fig8b", netmodel.Stampede2(s.Stampede2Nodes)) }

// fig9 builds the end-to-end comparison (paper Figure 9).
func (s Scale) fig9(id string, p *netmodel.Platform) []*Table {
	return []*Table{
		s.sizeSweep(id+"-bcast",
			fmt.Sprintf("Broadcast vs message size, %d ranks (%s)", p.Topo.Size(), p.Name),
			p, libmodel.CPULibraries(p), imb.Bcast, s.Sizes),
		s.sizeSweep(id+"-reduce",
			fmt.Sprintf("Reduce vs message size, %d ranks (%s)", p.Topo.Size(), p.Name),
			p, libmodel.CPULibraries(p), imb.Reduce, s.Sizes),
	}
}

// Fig9a / Fig9b: end-to-end sweeps on Cori and Stampede2.
func (s Scale) Fig9a() []*Table { return s.fig9("fig9a", netmodel.Cori(s.CoriNodes)) }
func (s Scale) Fig9b() []*Table { return s.fig9("fig9b", netmodel.Stampede2(s.Stampede2Nodes)) }

// Fig10: strong scaling with CPU data on Cori, 4 MB, 8→32 nodes (paper
// Figure 10). ADAPT runs the all-chain tree here, as in the paper, whose
// pipelined cost is independent of the process count.
func (s Scale) Fig10() []*Table {
	full := netmodel.Cori(s.CoriNodes)
	var procs []int
	ranksPerNode := full.Topo.SocketsPerNode * full.Topo.CoresPerSocket
	for nodes := s.CoriNodes / 4; nodes <= s.CoriNodes; nodes *= 2 {
		if nodes >= 1 {
			procs = append(procs, nodes*ranksPerNode)
		}
	}
	if len(procs) > 0 && procs[0] > 128 {
		procs = append([]int{128}, procs...)
		sort.Ints(procs)
	}
	var tables []*Table
	for _, op := range []imb.Op{imb.Bcast, imb.Reduce} {
		t := &Table{
			ID:     fmt.Sprintf("fig10-%s", opSlug(op)),
			Title:  fmt.Sprintf("Strong scalability of %s with CPU data, 4MB (cori)", op),
			Header: []string{"library"},
		}
		for _, np := range procs {
			t.Header = append(t.Header, fmt.Sprintf("%dp ms", np))
		}
		libs := []libmodel.Library{libmodel.IntelMPI(full), libmodel.CrayMPI(full),
			libmodel.OMPIDefault(full), libmodel.OMPIAdaptChain(full)}
		for li := range libs {
			row := []string{libs[li].Name}
			for _, np := range procs {
				sub := full.WithTopo(full.Topo.Subset(np))
				var lib libmodel.Library
				switch li {
				case 0:
					lib = libmodel.IntelMPI(sub)
				case 1:
					lib = libmodel.CrayMPI(sub)
				case 2:
					lib = libmodel.OMPIDefault(sub)
				default:
					lib = libmodel.OMPIAdaptChain(sub)
				}
				row = append(row, ms(s.measure(sub, noise.None, lib, op, 4*netmodel.MB, 0)))
			}
			t.AddRow(row...)
		}
		tables = append(tables, t)
	}
	return tables
}

func opSlug(op imb.Op) string {
	if op == imb.Bcast {
		return "bcast"
	}
	return "reduce"
}

// Fig11a: GPU collectives vs message size on PSG (paper Figure 11a).
func (s Scale) Fig11a() []*Table {
	p := netmodel.PSG(s.PSGNodes)
	return []*Table{
		s.sizeSweep("fig11a-bcast",
			fmt.Sprintf("GPU Broadcast vs message size, %d nodes (%d GPUs)", p.Topo.Nodes, p.Topo.Size()),
			p, libmodel.GPULibraries(p), imb.Bcast, s.GPUSizes),
		s.sizeSweep("fig11a-reduce",
			fmt.Sprintf("GPU Reduce vs message size, %d nodes (%d GPUs)", p.Topo.Nodes, p.Topo.Size()),
			p, libmodel.GPULibraries(p), imb.Reduce, s.GPUSizes),
	}
}

// Fig11b: GPU strong scaling at 32 MB, 1→8 nodes (paper Figure 11b).
func (s Scale) Fig11b() []*Table {
	size := s.GPUSizes[len(s.GPUSizes)-1]
	var tables []*Table
	for _, op := range []imb.Op{imb.Bcast, imb.Reduce} {
		t := &Table{
			ID:     fmt.Sprintf("fig11b-%s", opSlug(op)),
			Title:  fmt.Sprintf("GPU strong scalability of %s, %s", op, sizeLabel(size)),
			Header: []string{"library"},
		}
		var nodesList []int
		for n := 1; n <= s.PSGNodes; n *= 2 {
			nodesList = append(nodesList, n)
		}
		for _, n := range nodesList {
			p := netmodel.PSG(n)
			t.Header = append(t.Header, fmt.Sprintf("%dn:%dg ms", n, p.Topo.Size()))
		}
		names := []string{"MVAPICH", "OMPI-default", "OMPI-adapt"}
		for li, name := range names {
			row := []string{name}
			for _, n := range nodesList {
				p := netmodel.PSG(n)
				libs := libmodel.GPULibraries(p)
				row = append(row, ms(s.measure(p, noise.None, libs[li], op, size, 0)))
			}
			t.AddRow(row...)
		}
		tables = append(tables, t)
	}
	return tables
}

// Table1: the ASP application (paper Table 1). Executes s.ASPIters
// Floyd–Warshall iterations at N = s.ASPDim on the Cori profile and
// scales to the full algorithm.
func (s Scale) Table1() []*Table {
	p := netmodel.Cori(s.CoriNodes)
	t := &Table{
		ID:     "table1",
		Title:  fmt.Sprintf("ASP (parallel Floyd–Warshall), N=%d, %d ranks (cori)", s.ASPDim, p.Topo.Size()),
		Header: []string{"library", "communication s", "total runtime s", "comm share"},
		Notes: []string{
			fmt.Sprintf("executed %d of %d iterations, scaled linearly", s.ASPIters, s.ASPDim),
		},
	}
	libs := []libmodel.Library{libmodel.CrayMPI(p), libmodel.IntelMPI(p),
		libmodel.OMPIAdapt(p), libmodel.OMPIDefault(p)}
	libs[3].Name = "OMPI-tuned"
	for _, lib := range libs {
		lib := lib
		res := s.cell(func() any {
			k := sim.New()
			w := simmpi.NewWorld(k, p, noise.None)
			tb := s.traceBuffer()
			w.Trace = tb
			var res asp.Result
			w.Spawn(func(c *simmpi.Comm) {
				r := asp.Run(c, asp.Config{
					N: s.ASPDim, Iters: s.ASPIters, ElemSize: 8, Bcast: lib.Bcast,
				}, nil)
				if c.Rank() == 0 {
					res = r
				}
			})
			k.MustRun()
			return wrapTraced(res, tb, fmt.Sprintf("table1/%s/asp", lib.Name))
		}, asp.Result{Iters: 1}).(asp.Result)
		full := res.Scaled(s.ASPDim)
		t.AddRow(lib.Name,
			fmt.Sprintf("%.2f", full.Comm.Seconds()),
			fmt.Sprintf("%.2f", full.Total.Seconds()),
			fmt.Sprintf("%.0f%%", 100*float64(full.Comm)/float64(full.Total)))
	}
	return []*Table{t}
}

// Experiments lists every paper exhibit id; Extensions lists the
// beyond-the-paper exhibits ("all" runs only the paper set).
func Experiments() []string {
	return []string{"fig7a", "fig7b", "fig8a", "fig8b", "fig9a", "fig9b",
		"fig10", "fig11a", "fig11b", "table1"}
}

// Extensions lists the exhibit ids that go beyond the paper.
func Extensions() []string {
	return []string{"ext-nvlink", "ext-placement", "ext-allreduce", "ext-chaos", "ext-crash", "ext-fec"}
}

// RunTables generates one exhibit's tables (or every paper exhibit for
// "all") at the given scale.
func RunTables(id string, s Scale) ([]*Table, error) {
	gens := map[string]func() []*Table{
		"fig7a": s.Fig7a, "fig7b": s.Fig7b,
		"fig8a": s.Fig8a, "fig8b": s.Fig8b,
		"fig9a": s.Fig9a, "fig9b": s.Fig9b,
		"fig10": s.Fig10, "fig11a": s.Fig11a, "fig11b": s.Fig11b,
		"table1":        s.Table1,
		"ext-nvlink":    s.ExtNVLink,
		"ext-placement": s.ExtPlacement,
		"ext-allreduce": s.ExtAllreduce,
		"ext-chaos":     s.ExtChaos,
		"ext-crash":     s.ExtCrash,
		"ext-fec":       s.ExtFEC,
	}
	if id == "all" {
		var out []*Table
		for _, name := range Experiments() {
			out = append(out, gens[name]()...)
		}
		return out, nil
	}
	gen, ok := gens[id]
	if !ok {
		return nil, fmt.Errorf("bench: unknown experiment %q (have %v, extensions %v, all)",
			id, Experiments(), Extensions())
	}
	return gen(), nil
}

// Run generates one exhibit (or "all") at the given scale, printing to w.
func Run(id string, s Scale, w io.Writer) error {
	tables, err := RunTables(id, s)
	if err != nil {
		return err
	}
	for _, t := range tables {
		t.Fprint(w)
	}
	return nil
}
