package simmpi_test

import (
	"encoding/binary"
	"hash/fnv"
	"testing"
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

// dispatchPrint fingerprints a simulation's whole event trajectory:
// FNV-64a over every dispatched event's (insertion seq, virtual time),
// plus the makespan and the event count.
type dispatchPrint struct {
	hash     uint64
	makespan time.Duration
	events   uint64
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
	return recordDispatch(t, k)
}

// TestDispatchTrajectoryGolden pins the simulator's event trajectory —
// every dispatch's sequence number and virtual time — for the clean
// point-to-point paths (flat and proc driver, eager and rendezvous, host
// and both GPU delivery branches) and one lossy FEC run. Allocation work
// on the transfer path must leave every Schedule call, delay and order
// intact, so these prints never change without a model change.
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
		"proc/allreduce/drops+fec":    {hash: 0x55d17a5888c029b2, makespan: 1697014, events: 20054},
	}
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			got := r.fn(t)
			want, ok := golden[r.name]
			if !ok || got != want {
				t.Errorf("dispatch trajectory changed:\n got  %q: {hash: %#x, makespan: %d, events: %d},\n want %+v",
					r.name, got.hash, int64(got.makespan), got.events, want)
			}
		})
	}
}
