package bench

import (
	"fmt"
	"time"

	"adapt/internal/coll"
	"adapt/internal/comm"
	"adapt/internal/core"
	"adapt/internal/faults"
	"adapt/internal/hwloc"
	"adapt/internal/imb"
	"adapt/internal/libmodel"
	"adapt/internal/netmodel"
	"adapt/internal/noise"
	"adapt/internal/sim"
	"adapt/internal/simmpi"
	"adapt/internal/trees"
)

// This file holds extension exhibits beyond the paper's evaluation,
// exercising the future-work directions §7 sketches: more collectives,
// richer hardware lanes (NVLink), and sensitivity to process placement.

// runOnce executes body on a fresh world and returns the makespan.
func runOnce(p *netmodel.Platform, spec noise.Spec, body func(c *simmpi.Comm)) time.Duration {
	k := sim.New()
	w := simmpi.NewWorld(k, p, spec)
	w.Spawn(body)
	return k.MustRun()
}

// ExtNVLink compares the GPU collectives on the PSG machine with and
// without NVLink peer lanes: NVLink absorbs the intra-socket PCIe traffic
// that the §4.1 staging buffer otherwise has to manage.
func (s Scale) ExtNVLink() []*Table {
	t := &Table{
		ID:     "ext-nvlink",
		Title:  fmt.Sprintf("GPU collectives, PCIe peers vs NVLink peers, %d nodes", s.PSGNodes),
		Header: []string{"configuration", "bcast ms", "reduce ms"},
		Notes:  []string{"extension beyond the paper: the intro's NVLink lane, modelled"},
	}
	size := s.GPUSizes[len(s.GPUSizes)-1]
	for _, pf := range []*netmodel.Platform{netmodel.PSG(s.PSGNodes), netmodel.PSGNVLink(s.PSGNodes)} {
		lib := libmodel.OMPIAdapt(pf)
		b := s.measure(pf, noise.None, lib, imb.Bcast, size, 0)
		r := s.measure(pf, noise.None, lib, imb.Reduce, size, 0)
		t.AddRow("OMPI-adapt on "+pf.Name, ms(b), ms(r))
	}
	return []*Table{t}
}

// ExtPlacement shows why topology awareness matters: the same 4 MB
// broadcast under the three mpirun placements. The topology-aware ADAPT
// tree adapts to the placement; the rank-order chain of the tuned module
// degrades as consecutive ranks move further apart.
func (s Scale) ExtPlacement() []*Table {
	t := &Table{
		ID:     "ext-placement",
		Title:  "Broadcast 4MB vs process placement (cori)",
		Header: []string{"placement", "OMPI-adapt ms", "OMPI-default ms", "default/adapt"},
		Notes:  []string{"extension beyond the paper: --map-by sensitivity"},
	}
	base := netmodel.Cori(s.CoriNodes)
	for _, pl := range []hwloc.Placement{hwloc.PlaceByCore, hwloc.PlaceBySocket, hwloc.PlaceByNode} {
		topo := hwloc.NewPlaced(base.Topo.Nodes, base.Topo.SocketsPerNode, base.Topo.CoresPerSocket, pl)
		p := base.WithTopo(topo)
		adapt := s.measure(p, noise.None, libmodel.OMPIAdapt(p), imb.Bcast, 4*netmodel.MB, 0)
		def := s.measure(p, noise.None, libmodel.OMPIDefault(p), imb.Bcast, 4*netmodel.MB, 0)
		t.AddRow(pl.String(), ms(adapt), ms(def), speedup(def, adapt))
	}
	return []*Table{t}
}

// chaosCell is one collective run under a fault plan: its makespan plus
// the fault schedule it survived.
type chaosCell struct {
	Makespan time.Duration
	Stats    faults.Stats
	Lost     int // sends that exhausted the attempt budget
}

// chaosRun executes body on a fresh world with plan installed (nil plan =
// the fault-free baseline) and DefaultRecovery handling the losses.
func chaosRun(p *netmodel.Platform, plan *faults.Plan, body func(c *simmpi.Comm)) chaosCell {
	k := sim.New()
	w := simmpi.NewWorld(k, p, noise.None)
	if plan != nil && plan.Enabled() {
		w.InstallFaults(*plan, faults.DefaultRecovery())
	}
	w.Spawn(body)
	return chaosCell{Makespan: k.MustRun(), Stats: w.FaultStats(), Lost: len(w.Failures())}
}

// ExtChaos prices the recovery machinery: broadcast and ring allreduce
// under a ladder of fault plans, reporting the makespan inflation the
// retransmission/backoff protocol pays to keep results byte-identical
// (internal/conform proves the identity; this table shows the cost).
// Scale.FaultPlan (adaptbench -faults) appends a custom plan row.
func (s Scale) ExtChaos() []*Table {
	p := netmodel.Cori(1).WithTopo(hwloc.New(4, 1, 2))
	n := p.Topo.Size()
	size := 1 * netmodel.MB
	tree := trees.Binomial(n, 0)
	t := &Table{
		ID:    "ext-chaos",
		Title: fmt.Sprintf("Collectives under fault injection, %s payload, %d ranks (cori)", sizeLabel(size), n),
		Header: []string{"fault plan", "bcast ms", "bcast slow",
			"allreduce ms", "allreduce slow", "drops", "retries", "lost"},
		Notes: []string{
			"extension beyond the paper: ack/retry recovery cost; results stay byte-identical (internal/conform)",
		},
	}
	ladder := []struct {
		name string
		text string
	}{
		{"clean", ""},
		{"lossy 5%", "seed=101; all: drop=0.05"},
		{"lossy 15% + dup", "seed=102; all: drop=0.15, dup=0.05, jitter=20us"},
		{"edge 0->1 degraded", "seed=103; link 0->1: drop=0.4, delay=50us@0.5"},
	}
	ops := []struct {
		name string
		run  func(c *simmpi.Comm)
	}{
		{"bcast", func(c *simmpi.Comm) {
			core.Bcast(c, tree, comm.Sized(size), core.DefaultOptions())
		}},
		{"allreduce", func(c *simmpi.Comm) {
			coll.AllreduceRing(c, comm.Sized(size), coll.DefaultOptions())
		}},
	}
	type planRow struct {
		name string
		plan *faults.Plan
	}
	rows := make([]planRow, 0, len(ladder)+1)
	for _, l := range ladder {
		var pl *faults.Plan
		if l.text != "" {
			plan := faults.MustParsePlan(l.text)
			pl = &plan
		}
		rows = append(rows, planRow{l.name, pl})
	}
	// Crash plans kill ranks: the plain (non-FT) collectives here would
	// deadlock. ext-crash hosts the custom crash row instead.
	if s.FaultPlan != nil && len(s.FaultPlan.Crashes) == 0 {
		rows = append(rows, planRow{"custom (-faults)", s.FaultPlan})
	}
	base := make([]time.Duration, len(ops))
	for ri, row := range rows {
		cells := make([]chaosCell, len(ops))
		for oi, op := range ops {
			plan, run := row.plan, op.run
			cells[oi] = s.cell(func() any { return chaosRun(p, plan, run) }, chaosCell{}).(chaosCell)
		}
		if ri == 0 {
			for oi := range ops {
				base[oi] = cells[oi].Makespan
			}
		}
		var drops, retries uint64
		lost := 0
		for _, c := range cells {
			drops += c.Stats.Drops
			retries += c.Stats.Retries
			lost += c.Lost
		}
		t.AddRow(row.name,
			ms(cells[0].Makespan), pct(base[0], cells[0].Makespan),
			ms(cells[1].Makespan), pct(base[1], cells[1].Makespan),
			fmt.Sprint(drops), fmt.Sprint(retries), fmt.Sprint(lost))
	}
	return []*Table{t}
}

// crashCell is one fault-tolerant collective run under a crash plan: the
// makespan plus what the failure detector did to get there.
type crashCell struct {
	Makespan  time.Duration
	Det       faults.DetectorStats
	Survivors int // ranks in the committed survivor mask
}

// ftRun executes one FT collective on a fresh world with plan's crash
// schedule installed (nil plan = crash-free baseline).
func ftRun(p *netmodel.Platform, plan *faults.Plan, body func(c *simmpi.Comm) core.FTResult) crashCell {
	k := sim.New()
	w := simmpi.NewWorld(k, p, noise.None)
	if plan != nil && plan.Enabled() {
		w.InstallFaults(*plan, faults.DefaultRecovery())
	}
	var cell crashCell
	w.Spawn(func(c *simmpi.Comm) {
		res := body(c)
		if c.Rank() != 0 {
			return
		}
		for _, live := range res.Survivors {
			if live {
				cell.Survivors++
			}
		}
	})
	cell.Makespan = k.MustRun()
	cell.Det = w.DetectorStats()
	// The root may be the crash target; count survivors from the world's
	// own death mask in that case.
	if cell.Survivors == 0 {
		for _, dead := range w.Crashed() {
			if !dead {
				cell.Survivors++
			}
		}
	}
	return cell
}

// ExtCrash prices fail-stop recovery: the fault-tolerant broadcast and
// reduce under a ladder of crash@rank plans, reporting the makespan the
// detector leases and tree repair add on top of the crash-free FT run.
// A crash-bearing -faults plan (e.g. "crash@3") appends a custom row.
func (s Scale) ExtCrash() []*Table {
	p := netmodel.Cori(1).WithTopo(hwloc.New(8, 1, 1))
	n := p.Topo.Size()
	size := 1 * netmodel.MB
	tree := trees.Binomial(n, 0)
	t := &Table{
		ID:    "ext-crash",
		Title: fmt.Sprintf("Fail-stop crashes under FT collectives, %s payload, %d ranks (cori)", sizeLabel(size), n),
		Header: []string{"crash plan", "bcast ms", "bcast slow",
			"reduce ms", "reduce slow", "suspects", "confirms", "repairs", "survivors"},
		Notes: []string{
			"extension beyond the paper: failure detector + tree self-healing; survivors get byte-identical results (internal/conform)",
		},
	}
	ladder := []struct {
		name string
		text string
	}{
		{"clean", ""},
		{"leaf crash (rank 7)", "seed=201; crash@7"},
		{"interior crash (rank 4)", "seed=202; crash@4:after1"},
	}
	type planRow struct {
		name string
		plan *faults.Plan
	}
	rows := make([]planRow, 0, len(ladder)+1)
	for _, l := range ladder {
		var pl *faults.Plan
		if l.text != "" {
			plan := faults.MustParsePlan(l.text)
			pl = &plan
		}
		rows = append(rows, planRow{l.name, pl})
	}
	if s.FaultPlan != nil && len(s.FaultPlan.Crashes) > 0 {
		rows = append(rows, planRow{"custom (-faults)", s.FaultPlan})
	}
	ops := []func(c *simmpi.Comm) core.FTResult{
		func(c *simmpi.Comm) core.FTResult {
			return core.BcastFT(c, tree, comm.Sized(size), core.DefaultOptions())
		},
		func(c *simmpi.Comm) core.FTResult {
			return core.ReduceFT(c, tree, comm.Sized(size), core.DefaultOptions())
		},
	}
	base := make([]time.Duration, len(ops))
	for ri, row := range rows {
		cells := make([]crashCell, len(ops))
		for oi, op := range ops {
			plan, run := row.plan, op
			cells[oi] = s.cell(func() any { return ftRun(p, plan, run) }, crashCell{}).(crashCell)
		}
		if ri == 0 {
			for oi := range ops {
				base[oi] = cells[oi].Makespan
			}
		}
		det := cells[0].Det
		det.Suspects += cells[1].Det.Suspects
		det.Confirms += cells[1].Det.Confirms
		det.Repairs += cells[1].Det.Repairs
		t.AddRow(row.name,
			ms(cells[0].Makespan), pct(base[0], cells[0].Makespan),
			ms(cells[1].Makespan), pct(base[1], cells[1].Makespan),
			fmt.Sprint(det.Suspects), fmt.Sprint(det.Confirms), fmt.Sprint(det.Repairs),
			fmt.Sprint(cells[0].Survivors))
	}
	return []*Table{t}
}

// ExtAllreduce compares the allreduce algorithms in the repository: the
// fused event-driven tree pipeline (internal/core), sequential
// reduce+bcast, the ring, and Rabenseifner's reduce-scatter+allgather.
func (s Scale) ExtAllreduce() []*Table {
	p := netmodel.Cori(s.CoriNodes)
	tree := trees.Topology(p.Topo, 0, libmodel.AdaptReduceConfig())
	t := &Table{
		ID:     "ext-allreduce",
		Title:  fmt.Sprintf("Allreduce algorithms vs message size, %d ranks (cori)", p.Topo.Size()),
		Header: []string{"algorithm"},
		Notes:  []string{"extension beyond the paper: §2.2.3 composition, measured"},
	}
	sizes := s.Sizes
	for _, sz := range sizes {
		t.Header = append(t.Header, sizeLabel(sz)+" ms")
	}
	algos := []struct {
		name string
		run  func(c *simmpi.Comm, size, seq int)
	}{
		{"fused tree (event-driven)", func(c *simmpi.Comm, size, seq int) {
			opt := core.DefaultOptions()
			opt.Seq = seq
			core.Allreduce(c, tree, comm.Sized(size), opt)
		}},
		{"reduce + bcast (sequential)", func(c *simmpi.Comm, size, seq int) {
			opt := core.DefaultOptions()
			opt.Seq = seq
			red := core.Reduce(c, tree, comm.Sized(size), opt)
			opt.Seq = seq + 1
			msg := comm.Sized(size)
			if c.Rank() == 0 {
				msg = red
			}
			core.Bcast(c, tree, msg, opt)
		}},
		{"ring (reduce-scatter+allgather)", func(c *simmpi.Comm, size, seq int) {
			opt := coll.DefaultOptions()
			opt.Seq = seq
			coll.AllreduceRing(c, comm.Sized(size), opt)
		}},
		{"rabenseifner (rs + event allgather)", func(c *simmpi.Comm, size, seq int) {
			opt := coll.DefaultOptions()
			opt.Seq = seq
			coll.AllreduceRabenseifner(c, comm.Sized(size), opt)
		}},
	}
	for _, a := range algos {
		row := []string{a.name}
		for _, sz := range sizes {
			sz := sz
			run := a.run
			// One warmup + a barrier-fenced two-op train, as imb.Measure.
			d := s.cell(func() any {
				var t0, t1 time.Duration
				runOnce(p, noise.None, func(c *simmpi.Comm) {
					run(c, sz, 0)
					coll.Barrier(c, 999)
					if c.Rank() == 0 {
						t0 = c.Now()
					}
					run(c, sz, 2)
					run(c, sz, 4)
					coll.Barrier(c, 1000)
					if c.Rank() == 0 {
						t1 = c.Now()
					}
				})
				return (t1 - t0) / 2
			}, time.Duration(0)).(time.Duration)
			row = append(row, ms(d))
		}
		t.AddRow(row...)
	}
	return []*Table{t}
}
