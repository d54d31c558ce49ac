package main

import (
	"fmt"
	"hash/fnv"
	"os"
	"runtime/debug"
	"sort"
	"time"

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

const ranksPerNode = 32 // Cori: 2 sockets x 16 cores

// simWorkload is the shape of one simulator workload. Each repetition
// builds it from scratch, so every repetition of a seed must reproduce
// the same virtual makespan, event count and fault and FEC counts.
type simWorkload struct {
	ranks     int
	msgBytes  int  // allreduced per rank, comm.Sized: no payload bytes
	flat      bool // SpawnFlat (struct per rank) instead of Spawn (goroutine per rank)
	aggregate bool // netmodel.Params.Aggregate: one facility per class
	topoTree  bool // trees.Topology with ChainConfig instead of Binomial
	segSize   int  // 0 keeps core.DefaultOptions
	lossy     bool // 5% noise, 1% drops on every link, adaptive FEC with K=4
}

// sim-flat-allreduce: per-rank state far outgrows the caches, so it
// measures the event queue, the flat driver, the per-rank progress
// engines and the aggregated netmodel at scale. No noise, faults,
// goroutine ranks or payload bytes. 8192 ranks keep a repetition near a
// second, so each of a run's processes times several.
var flatAllreduce = simWorkload{ranks: 8 << 10, msgBytes: 1 << 20, flat: true, aggregate: true}

// sim-paper-lossy: the paper's 1024-rank Cori run with OMPI-adapt's
// chain trees, through everything the flat workload bypasses: goroutine
// rank switching, noise, the exact per-unit netmodel, ARQ retransmission
// and FEC. 256 KiB (32 segments) keeps a repetition near a second and a
// half, so each of a run's processes times several.
var paperLossy = simWorkload{ranks: 1024, msgBytes: 256 << 10, topoTree: true, segSize: 8 << 10, lossy: true}

func runSimFlat(cfg config, tr *tracer) (*report, error)  { return flatAllreduce.measure(cfg, tr) }
func runSimLossy(cfg config, tr *tracer) (*report, error) { return paperLossy.measure(cfg, tr) }

// Seed streams: each random input of a workload draws from its own.
const (
	streamNoise   = 1
	streamDrops   = 2
	streamServe   = 3
	streamProcess = 4 // the seeds of an untraced run's child processes
)

// simPrint is what must repeat exactly across repetitions of one seed.
type simPrint struct {
	makespan  time.Duration
	events    uint64
	queuePeak int
	faults    faults.Stats
	fec       fec.Stats
	doneHash  uint64 // every rank's virtual completion time
}

// simRep is one repetition: set-up, one collective, and its check.
type simRep struct {
	platform, tree, world time.Duration // set-up parts (world includes Spawn)
	run                   time.Duration // Kernel.Run plus the check
	fp                    simPrint
	facilities            int
	data                  int           // data segments the collective sends
	p50, p99              time.Duration // over ranks, from Run's start to each rank's completion
	peakKB                int64         // VmHWM over the repetition (timed ones only)
	err                   error
}

func (r simRep) setup() time.Duration { return r.platform + r.tree + r.world }

// rep builds the platform, tree and world, runs one allreduce, and
// checks that every rank completed. op numbers the trace spans.
func (s simWorkload) rep(seed int64, tr *tracer, op int) (r simRep) {
	root := tr.begin("bench", "repetition", -1, op)
	defer tr.end(root)

	t := time.Now()
	sp := tr.begin("netmodel", "Cori", root, op)
	p := netmodel.Cori(s.ranks / ranksPerNode)
	p.Aggregate = s.aggregate
	tr.end(sp)
	r.platform = time.Since(t)

	t = time.Now()
	var tree *trees.Tree
	if s.topoTree {
		sp = tr.begin("trees", "Topology", root, op)
		tree = trees.Topology(p.Topo, 0, trees.ChainConfig())
	} else {
		sp = tr.begin("trees", "Binomial", root, op)
		tree = trees.Binomial(s.ranks, 0)
	}
	tr.end(sp)
	r.tree = time.Since(t)

	opt := core.DefaultOptions()
	if s.segSize > 0 {
		opt.SegSize = s.segSize
	}
	msg := comm.Sized(s.msgBytes)
	r.data = 2 * (s.ranks - 1) * comm.NumSegments(s.msgBytes, opt.SegSize)

	t = time.Now()
	sp = tr.begin("simmpi", "NewWorld", root, op)
	k := sim.New()
	spec := noise.None
	if s.lossy {
		spec = noise.Percent(5)
		spec.Seed = splitmix(seed, streamNoise)
	}
	w := simmpi.NewWorld(k, p, spec)
	if s.lossy {
		plan := faults.MustParsePlan(fmt.Sprintf("seed=%d; all: drop=0.01", splitmix(seed, streamDrops)))
		w.InstallFaults(plan, faults.DefaultRecovery())
		w.EnableFEC(fec.Config{K: 4})
	}
	n := w.Size()
	done := make([]bool, n)
	vdone := make([]time.Duration, n)
	lat := make([]float64, n)
	var start time.Time
	finish := func(c *simmpi.Comm, o *core.Op) {
		i := c.Rank()
		if done[i] || !o.Done() {
			return
		}
		done[i] = true
		vdone[i] = c.Now()
		lat[i] = float64(time.Since(start))
	}
	if s.flat {
		w.SpawnFlat(func(c *simmpi.Comm) {
			o := core.StartAllreduce(c, tree, msg, opt)
			c.OnIdle(func() { finish(c, o) })
		})
	} else {
		w.Spawn(func(c *simmpi.Comm) {
			o := core.StartAllreduce(c, tree, msg, opt)
			o.Wait()
			finish(c, o)
		})
	}
	tr.end(sp)
	r.world = time.Since(t)
	r.facilities = w.Net.Facilities()

	sp = tr.begin("sim", "Kernel.Run", root, op)
	start = time.Now()
	makespan, err := k.Run()
	tr.end(sp)

	sp = tr.begin("bench", "check", root, op)
	defer func() {
		tr.end(sp)
		r.run = time.Since(start)
	}()
	if err != nil {
		r.err = err
		return r
	}
	h := fnv.New64a()
	var b [8]byte
	for i := range done {
		if !done[i] {
			r.err = fmt.Errorf("rank %d: allreduce not done when the kernel drained", i)
			return r
		}
		for j := range b {
			b[j] = byte(uint64(vdone[i]) >> (8 * j))
		}
		h.Write(b[:])
	}
	sort.Float64s(lat)
	for _, q := range []struct {
		p   float64
		out *time.Duration
	}{{0.50, &r.p50}, {0.99, &r.p99}} {
		v, err := percentile(lat, q.p)
		if err != nil {
			r.err = err
			return r
		}
		*q.out = time.Duration(v.Value)
	}
	if fs := w.Failures(); len(fs) > 0 {
		r.err = fmt.Errorf("%d sends exhausted their retries, first: %v", len(fs), fs[0])
		return r
	}
	st := k.Stats()
	r.fp = simPrint{makespan: makespan, events: st.Dispatched, queuePeak: st.QueuePeak,
		faults: w.FaultStats(), fec: w.FECStats(), doneHash: h.Sum64()}
	return r
}

// measure runs one untimed repetition as the reference, then timed
// repetitions until the next would end past cfg.seconds. Traced runs
// alternate untraced and traced repetitions, so their difference is the
// tracing overhead under the same host conditions.
func (s simWorkload) measure(cfg config, tr *tracer) (*report, error) {
	rep := newReport()
	hwm0, err := peakRSSKB()
	if err != nil {
		return nil, err
	}
	ref := s.rep(cfg.seed, nil, 0)
	rep.attempted++
	if ref.err != nil {
		rep.fail("reference repetition: %v", ref.err)
	}
	hwm1, err := peakRSSKB()
	if err != nil {
		return nil, err
	}

	all := []simRep{ref}
	var timed, plain, traced []simRep
	var walls []float64
	pr, err := startProbe()
	if err != nil {
		return nil, err
	}
	for i := 1; ; i++ {
		if est, _ := median(walls); len(walls) > 0 && time.Since(pr.wall)+time.Duration(est) > cfg.seconds {
			break
		}
		t0 := time.Now()
		debug.FreeOSMemory() // collect and return the last repetition's heap
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		var t *tracer
		if i%2 == 1 {
			t = tr
		}
		x := s.rep(cfg.seed, t, i)
		if x.peakKB, err = peakRSSKB(); err != nil {
			return nil, err
		}
		rep.attempted++
		switch {
		case x.err != nil:
			rep.fail("repetition %d: %v", i, x.err)
		case x.fp != ref.fp:
			rep.fail("repetition %d is not deterministic: %+v, reference %+v", i, x.fp, ref.fp)
		}
		fmt.Fprintf(os.Stderr, "perfbench: repetition %d: set-up %v, run %v, p50 %v p99 %v over %d ranks, peak RSS %d KiB\n",
			i, x.setup(), x.run, x.p50, x.p99, s.ranks, x.peakKB)
		timed, all = append(timed, x), append(all, x)
		if t != nil {
			traced = append(traced, x)
		} else {
			plain = append(plain, x)
		}
		walls = append(walls, float64(time.Since(t0)))
	}
	if err := pr.finish(rep, len(timed)); err != nil {
		return nil, err
	}

	pick := func(f func(simRep) time.Duration, reps []simRep) float64 {
		ds := make([]time.Duration, len(reps))
		for i, x := range reps {
			ds[i] = f(x)
		}
		m, _ := median(durations(ds, time.Second))
		return m
	}
	// Each repetition's rank latencies give its own p50 and p99; the run
	// reports the median repetition's, like ops_per_s.
	p50 := func(x simRep) time.Duration { return x.p50 }
	rep.e2e["p50_us"] = 1e6 * pick(p50, timed)
	rep.e2e["p99_us"] = 1e6 * pick(func(x simRep) time.Duration { return x.p99 }, timed)
	run := func(x simRep) time.Duration { return x.run }
	opTime := pick(run, timed)
	rep.e2e["ops_per_s"] = 1 / opTime
	rep.e2e["setup_s"] = pick(simRep.setup, all)
	peaks := make([]float64, len(timed))
	for i, x := range timed {
		peaks[i] = float64(x.peakKB) / 1024
	}
	rep.e2e["peak_rss_mb"], _ = median(peaks)

	fp := ref.fp
	rep.layer["sim.virtual_us"] = float64(fp.makespan) / float64(time.Microsecond)
	rep.layer["sim.events_per_op"] = float64(fp.events)
	rep.layer["sim.queue_peak"] = float64(fp.queuePeak)
	if fp.events > 0 {
		rep.layer["sim.ns_per_event"] = opTime * 1e9 / float64(fp.events)
	}
	rep.layer["simmpi.world_build_ms"] = 1e3 * pick(func(x simRep) time.Duration { return x.world }, all)
	rep.layer["simmpi.bytes_per_rank"] = float64(hwm1-hwm0) * 1024 / float64(s.ranks)
	rep.layer["netmodel.platform_ms"] = 1e3 * pick(func(x simRep) time.Duration { return x.platform }, all)
	rep.layer["netmodel.facilities"] = float64(ref.facilities)
	rep.layer["trees.build_ms"] = 1e3 * pick(func(x simRep) time.Duration { return x.tree }, all)
	rep.layer["faults.drops_per_op"] = float64(fp.faults.Drops)
	rep.layer["faults.retries_per_op"] = float64(fp.faults.Retries)
	rep.layer["faults.suppressed_per_op"] = float64(fp.faults.Suppressed)
	rep.layer["fec.parity_per_op"] = float64(fp.fec.ParityEncoded)
	rep.layer["fec.reconstructed_per_op"] = float64(fp.fec.Reconstructed)
	rep.layer["fec.groups_lost_per_op"] = float64(fp.fec.GroupsLost)
	if s.lossy {
		sent := float64(ref.data) + float64(fp.fec.ParityEncoded) + float64(fp.faults.Retries)
		rep.layer["fec.useful_ratio"] = float64(ref.data) / sent
	}
	if len(traced) > 0 && len(plain) > 0 {
		rep.layer["trace.ops_per_s_delta"] = 1/pick(run, traced) - 1/pick(run, plain)
		rep.layer["trace.p50_us_delta"] = 1e6 * (pick(p50, traced) - pick(p50, plain))
	}
	return rep, nil
}
