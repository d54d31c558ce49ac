package simmpi_test

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
	"time"

	"adapt/internal/comm"
	"adapt/internal/core"
	"adapt/internal/faults"
	"adapt/internal/fec"
	"adapt/internal/hwloc"
	"adapt/internal/netmodel"
	"adapt/internal/noise"
	"adapt/internal/sim"
	"adapt/internal/simmpi"
	"adapt/internal/trees"
)

// dispatchPrint fingerprints a simulation's whole event trajectory:
// FNV-64a over every dispatched event's (insertion seq, virtual time),
// plus the makespan, the event count and what the fault and FEC layers
// did (zero on clean runs).
type dispatchPrint struct {
	hash     uint64
	makespan time.Duration
	events   uint64
	faults   faults.Stats
	fec      fec.Stats
}

// recordDispatch runs k to completion with an observer hashing every
// dispatch.
func recordDispatch(t *testing.T, k *sim.Kernel) dispatchPrint {
	t.Helper()
	h := fnv.New64a()
	var buf [16]byte
	var events uint64
	k.SetDispatchObserver(func(seq uint64, at time.Duration) {
		binary.LittleEndian.PutUint64(buf[:8], seq)
		binary.LittleEndian.PutUint64(buf[8:], uint64(at))
		h.Write(buf[:])
		events++
	})
	makespan, err := k.Run()
	if err != nil {
		t.Fatalf("simulation failed: %v", err)
	}
	return dispatchPrint{hash: h.Sum64(), makespan: makespan, events: events}
}

// goldenSizes: 4 KiB in 1 KiB segments stays under the 8 KiB eager
// limit; 64 KiB in 16 KiB segments runs every segment through the
// rendezvous handshake.
var goldenSizes = []struct {
	name      string
	size, seg int
}{
	{"eager", 4 << 10, 1 << 10},
	{"rendezvous", 64 << 10, 16 << 10},
}

type goldenStart func(c *simmpi.Comm, t *trees.Tree, msg comm.Msg, opt core.Options) *core.Op

// dispatchRun builds a world on p and runs one collective per rank in
// flat or proc mode; setup, when non-nil, arms the world before spawn.
func dispatchRun(t *testing.T, p *netmodel.Platform, flat bool, size, seg int,
	start goldenStart, setup func(w *simmpi.World)) dispatchPrint {
	t.Helper()
	k := sim.New()
	w := simmpi.NewWorld(k, p, noise.None)
	if setup != nil {
		setup(w)
	}
	tree := trees.Binomial(w.Size(), 0)
	opt := core.DefaultOptions()
	opt.SegSize = seg
	msg := comm.Sized(size)
	if flat {
		w.SpawnFlat(func(c *simmpi.Comm) { start(c, tree, msg, opt) })
	} else {
		w.Spawn(func(c *simmpi.Comm) { start(c, tree, msg, opt).Wait() })
	}
	fp := recordDispatch(t, k)
	fp.faults, fp.fec = w.FaultStats(), w.FECStats()
	requireDrained(t, w)
	return fp
}

// requireDrained fails the test unless every pooled chaos-path record of
// a drained world is back on its free-list. Crash runs with FEC are
// exempt: a copy annihilated in flight leaves its group unresolved for
// good, and the group keeps its members.
func requireDrained(t *testing.T, w *simmpi.World) {
	t.Helper()
	if xmits, wires, groups := w.Outstanding(); xmits != 0 || wires != 0 || groups != 0 {
		t.Errorf("pooled records outstanding after drain: %d xmit, %d wire, %d FEC group", xmits, wires, groups)
	}
}

// lossyRun builds a proc-mode world on p with plan installed (and FEC
// at K=fecK when fecK > 0), runs body on every rank, and fingerprints
// the run.
func lossyRun(t *testing.T, p *netmodel.Platform, plan string, fecK int,
	body func(c *simmpi.Comm)) (dispatchPrint, *simmpi.World) {
	t.Helper()
	k := sim.New()
	w := simmpi.NewWorld(k, p, noise.None)
	pl := faults.MustParsePlan(plan)
	w.InstallFaults(pl, faults.DefaultRecovery())
	if fecK > 0 {
		w.EnableFEC(fec.Config{K: fecK})
	}
	w.Spawn(body)
	fp := recordDispatch(t, k)
	fp.faults, fp.fec = w.FaultStats(), w.FECStats()
	if len(pl.Crashes) == 0 || fecK == 0 {
		requireDrained(t, w)
	}
	return fp, w
}

// exactContrib is rank r's contribution of small-integer float64s: their
// sums are exact in any fold order, so a lossy run, whose segments
// arrive in a different order, must still match the clean run byte for
// byte.
func exactContrib(rank, size int) comm.Msg {
	b := make([]byte, size)
	for i := 0; i < size/8; i++ {
		binary.LittleEndian.PutUint64(b[i*8:], math.Float64bits(float64((rank*31+i)%17)))
	}
	return comm.Msg{Data: b, Size: size, Space: comm.MemHost}
}

// realAllreduce runs a proc-mode allreduce of real contributions on p
// (optionally lossy) and returns every rank's result bytes.
func realAllreduce(t *testing.T, p *netmodel.Platform, plan string, fecK, size, seg int) (dispatchPrint, *simmpi.World, [][]byte) {
	t.Helper()
	tree := trees.Binomial(p.Topo.Size(), 0)
	opt := core.DefaultOptions()
	opt.SegSize = seg
	out := make([][]byte, p.Topo.Size())
	body := func(c *simmpi.Comm) {
		res := core.Allreduce(c, tree, exactContrib(c.Rank(), size), opt)
		out[c.Rank()] = append([]byte(nil), res.Data...)
	}
	if plan == "" {
		k := sim.New()
		w := simmpi.NewWorld(k, p, noise.None)
		w.Spawn(body)
		return recordDispatch(t, k), w, out
	}
	fp, w := lossyRun(t, p, plan, fecK, body)
	return fp, w, out
}

// TestDispatchTrajectoryGolden pins the simulator's event trajectory —
// every dispatch's sequence number and virtual time — for the clean
// point-to-point paths (flat and proc driver, eager and rendezvous, host
// and both GPU delivery branches) and for the chaos transport: drops on
// the eager and rendezvous legs (RTS, CTS, data), duplicates, corruption
// and ack loss, a crash (copies annihilated in flight, retries failing
// fast once the death is confirmed) and FEC repairs of real payload
// bytes. Allocation work on the transfer path must leave every Schedule
// call, delay and order intact, and every verdict with it, so these
// prints never change without a model change.
func TestDispatchTrajectoryGolden(t *testing.T) {
	allreduce := func(c *simmpi.Comm, t *trees.Tree, msg comm.Msg, opt core.Options) *core.Op {
		return core.StartAllreduce(c, t, msg, opt)
	}
	bcast := func(c *simmpi.Comm, t *trees.Tree, msg comm.Msg, opt core.Options) *core.Op {
		return core.StartBcast(c, t, msg, opt)
	}
	staged := func(p *netmodel.Platform) goldenStart {
		return func(c *simmpi.Comm, t *trees.Tree, msg comm.Msg, opt core.Options) *core.Op {
			return core.StartBcastStaged(c, p.Topo, t, msg, opt)
		}
	}
	psg, nvl := netmodel.PSG(2), netmodel.PSGNVLink(2)

	type run struct {
		name string
		fn   func(t *testing.T) dispatchPrint
	}
	var runs []run
	for _, mode := range []struct {
		name string
		flat bool
	}{{"flat", true}, {"proc", false}} {
		for _, coll := range []struct {
			name  string
			start goldenStart
		}{{"allreduce", allreduce}, {"bcast", bcast}} {
			for _, sz := range goldenSizes {
				runs = append(runs, run{mode.name + "/" + coll.name + "/" + sz.name, func(t *testing.T) dispatchPrint {
					return dispatchRun(t, netmodel.Cori(2), mode.flat, sz.size, sz.seg, coll.start, nil)
				}})
			}
		}
	}
	for _, sz := range goldenSizes {
		runs = append(runs,
			run{"psg/staged-bcast/" + sz.name, func(t *testing.T) dispatchPrint {
				return dispatchRun(t, psg, false, sz.size, sz.seg, staged(psg), nil)
			}},
			run{"psg-nvlink/bcast/" + sz.name, func(t *testing.T) dispatchPrint {
				return dispatchRun(t, nvl, false, sz.size, sz.seg, bcast, nil)
			}})
	}
	runs = append(runs, run{"proc/allreduce/drops+fec", func(t *testing.T) dispatchPrint {
		var w *simmpi.World
		fp := dispatchRun(t, netmodel.Cori(2), false, 64<<10, 4<<10, allreduce, func(ww *simmpi.World) {
			w = ww
			w.InstallFaults(faults.MustParsePlan("seed=7; all: drop=0.02"), faults.DefaultRecovery())
			w.EnableFEC(fec.Config{K: 4})
		})
		if st := w.FaultStats(); st.Drops == 0 {
			t.Errorf("lossy golden run dropped nothing: %+v", st)
		}
		if fs := w.Failures(); len(fs) > 0 {
			t.Errorf("lossy golden run failed: %v", fs[0])
		}
		return fp
	}})
	for _, sz := range goldenSizes {
		runs = append(runs,
			run{"proc/allreduce/drops/" + sz.name, func(t *testing.T) dispatchPrint {
				fp := dispatchRun(t, netmodel.Cori(2), false, sz.size, sz.seg, allreduce, func(w *simmpi.World) {
					w.InstallFaults(faults.MustParsePlan("seed=3; all: drop=0.05"), faults.DefaultRecovery())
				})
				if fp.faults.Drops == 0 || fp.faults.Retries == 0 || fp.faults.Timeouts != 0 {
					t.Errorf("drop run: %v", fp.faults)
				}
				return fp
			}},
			run{"proc/allreduce/dup+corrupt+ackloss/" + sz.name, func(t *testing.T) dispatchPrint {
				fp := dispatchRun(t, netmodel.Cori(2), false, sz.size, sz.seg, allreduce, func(w *simmpi.World) {
					w.InstallFaults(faults.MustParsePlan("seed=11; all: drop=0.02, dup=0.05, corrupt=0.02"),
						faults.DefaultRecovery())
				})
				if st := fp.faults; st.Dups == 0 || st.Corrupts == 0 || st.Suppressed == 0 || st.Timeouts != 0 {
					t.Errorf("dup/corrupt run: %v", st)
				}
				return fp
			}})
	}
	runs = append(runs, run{"proc/bcast-ft/crash", func(t *testing.T) dispatchPrint {
		p := netmodel.Cori(1).WithTopo(hwloc.New(8, 1, 1))
		tree := trees.Binomial(8, 0)
		opt := core.DefaultOptions()
		opt.SegSize = 256
		root := payload(0, 2048)
		res := make([]core.FTResult, 8)
		fp, w := lossyRun(t, p, "seed=7; all: drop=0.02; crash@4:after1", 0, func(c *simmpi.Comm) {
			msg := comm.Msg{Size: len(root), Space: comm.MemHost}
			if c.Rank() == 0 {
				msg.Data = root
			}
			res[c.Rank()] = core.BcastFT(c, tree, msg, opt)
		})
		if det := w.DetectorStats(); det.Confirms == 0 || !w.Crashed()[4] {
			t.Errorf("crash run: detector %+v, crashed %v", det, w.Crashed())
		}
		if fp.faults.Timeouts == 0 {
			t.Errorf("crash run failed no retry chain fast: %v", fp.faults)
		}
		for r, rr := range res {
			if r != 4 && (rr.Err != nil || !bytes.Equal(rr.Msg.Data, root)) {
				t.Errorf("rank %d: err %v, payload intact %v", r, rr.Err, bytes.Equal(rr.Msg.Data, root))
			}
		}
		return fp
	}})
	runs = append(runs, run{"proc/allreduce/fec-bytes", func(t *testing.T) dispatchPrint {
		p := netmodel.Cori(2)
		_, _, clean := realAllreduce(t, p, "", 0, 8<<10, 1<<10)
		fp, w, got := realAllreduce(t, p, "seed=5; all: drop=0.05", 4, 8<<10, 1<<10)
		if fp.fec.Reconstructed == 0 {
			t.Errorf("FEC run repaired nothing: %+v", fp.fec)
		}
		if fs := w.Failures(); len(fs) > 0 {
			t.Errorf("FEC run failed: %v", fs[0])
		}
		for r := range clean {
			if !bytes.Equal(got[r], clean[r]) {
				t.Fatalf("rank %d: lossy FEC result differs from the clean run", r)
			}
		}
		return fp
	}})

	golden := map[string]dispatchPrint{
		"flat/allreduce/eager":        {hash: 0x5b6fa60417040339, makespan: 16499, events: 2650},
		"flat/allreduce/rendezvous":   {hash: 0xd516ceeddd9662f4, makespan: 215423, events: 3636},
		"flat/bcast/eager":            {hash: 0xa12bdfe0acd22cd5, makespan: 7313, events: 1328},
		"flat/bcast/rendezvous":       {hash: 0xf6c31b930c4a5659, makespan: 80609, events: 1832},
		"proc/allreduce/eager":        {hash: 0x1730b91717096245, makespan: 16499, events: 2844},
		"proc/allreduce/rendezvous":   {hash: 0xe282a806820d0d83, makespan: 215423, events: 3852},
		"proc/bcast/eager":            {hash: 0xa12bdfe0acd22cd5, makespan: 7313, events: 1328},
		"proc/bcast/rendezvous":       {hash: 0xf6c31b930c4a5659, makespan: 80609, events: 1832},
		"psg/staged-bcast/eager":      {hash: 0xa0b5604ccf88bd12, makespan: 44603, events: 200},
		"psg/staged-bcast/rendezvous": {hash: 0xf3033e2f3c6c4fd5, makespan: 81521, events: 256},
		"psg-nvlink/bcast/eager":      {hash: 0xf5df543717cb9902, makespan: 47749, events: 192},
		"psg-nvlink/bcast/rendezvous": {hash: 0x874e0aee40fde3ed, makespan: 88383, events: 248},
		"proc/allreduce/drops+fec": {hash: 0x55d17a5888c029b2, makespan: 1697014, events: 20054,
			faults: faults.Stats{Drops: 89, Retries: 38, Suppressed: 33},
			fec:    fec.Stats{ParityEncoded: 540, Reconstructed: 40, GroupsLost: 2}},
		"proc/allreduce/drops/eager": {hash: 0xfbcdcd951e56d26a, makespan: 3412331, events: 4525,
			faults: faults.Stats{Drops: 66, Retries: 66, Suppressed: 34}},
		"proc/allreduce/dup+corrupt+ackloss/eager": {hash: 0x4b8ab64700193ea7, makespan: 1608670, events: 4605,
			faults: faults.Stats{Drops: 22, Dups: 23, Corrupts: 22, Retries: 43, Suppressed: 51}},
		"proc/allreduce/drops/rendezvous": {hash: 0xda8159a0ebf22252, makespan: 2521148, events: 7689,
			faults: faults.Stats{Drops: 162, Retries: 162, Suppressed: 83}},
		"proc/allreduce/dup+corrupt+ackloss/rendezvous": {hash: 0xaaedc120ae2fc864, makespan: 2270037, events: 7892,
			faults: faults.Stats{Drops: 58, Dups: 84, Corrupts: 72, Retries: 125, Suppressed: 146}},
		"proc/bcast-ft/crash": {hash: 0xcb9c0b39d8916585, makespan: 6403058, events: 653,
			faults: faults.Stats{Drops: 3, Retries: 10, Timeouts: 2, Suppressed: 2}},
		"proc/allreduce/fec-bytes": {hash: 0x6775bb637fc07696, makespan: 1600990, events: 9956,
			faults: faults.Stats{Drops: 121, Retries: 61, Suppressed: 47},
			fec:    fec.Stats{ParityEncoded: 326, Reconstructed: 41, GroupsLost: 8}},
	}
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			got := r.fn(t)
			want, ok := golden[r.name]
			if !ok || got != want {
				t.Errorf("dispatch trajectory changed:\n got  %q: {hash: %#x, makespan: %d, events: %d,\n\t\tfaults: %#v,\n\t\tfec: %#v},\n want %+v",
					r.name, got.hash, int64(got.makespan), got.events, got.faults, got.fec, want)
			}
		})
	}
}
