package simmpi_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"adapt/internal/comm"
	"adapt/internal/core"
	"adapt/internal/faults"
	"adapt/internal/hwloc"
	"adapt/internal/netmodel"
	"adapt/internal/noise"
	"adapt/internal/sim"
	"adapt/internal/simmpi"
	"adapt/internal/trees"
)

// ftRun is one crash run's observable outcome.
type ftRun struct {
	makespan time.Duration
	det      faults.DetectorStats
	crashed  []bool
	got      []bool // rank returned a result
	out      [][]byte
	masks    [][]bool
	errs     []string
}

// runFT runs start on every rank of an 8-rank world under plan: the
// blocking form (WaitFT) as a proc-mode body, or the handle harvested
// from OnIdle on flat ranks.
func runFT(t *testing.T, flat bool, plan faults.Plan, start func(c *simmpi.Comm) *core.Op) ftRun {
	t.Helper()
	k := sim.New()
	w := simmpi.NewWorld(k, netmodel.Cori(1).WithTopo(hwloc.New(8, 1, 1)), noise.None)
	w.InstallFaults(plan, faults.Recovery{})
	n := w.Size()
	run := ftRun{got: make([]bool, n), out: make([][]byte, n), masks: make([][]bool, n), errs: make([]string, n)}
	record := func(r int, res core.FTResult) {
		run.got[r] = true
		run.out[r] = append([]byte(nil), res.Msg.Data...)
		run.masks[r] = append([]bool(nil), res.Survivors...)
		if res.Err != nil {
			run.errs[r] = res.Err.Error()
		}
	}
	if flat {
		w.SpawnFlat(func(c *simmpi.Comm) {
			op := start(c)
			harvest := func() {
				if !run.got[c.Rank()] && op.Done() {
					record(c.Rank(), op.WaitFT())
				}
			}
			c.OnIdle(harvest)
			harvest()
		})
	} else {
		w.Spawn(func(c *simmpi.Comm) { record(c.Rank(), start(c).WaitFT()) })
	}
	run.makespan = k.MustRun()
	run.det, run.crashed = w.DetectorStats(), w.Crashed()
	return run
}

// TestFlatMatchesProcModeUnderCrashes: the survivor-set collectives are
// callback state machines, so they run on flat ranks under crash plans
// and must match the proc mode's blocking BcastFT/ReduceFT rank for rank
// — result bytes, survivor masks, errors, detector activity and
// makespan — with the crashed rank returning nothing in either driver.
// Covers a receiver leaving mid-broadcast, a sender failing mid-reduce,
// leaf deaths and the dead-root abort, on binomial and chain trees, with
// eager and rendezvous segments.
func TestFlatMatchesProcModeUnderCrashes(t *testing.T) {
	const n = 8
	shapes := []struct {
		name string
		tree *trees.Tree
		mid  int // an interior rank
	}{
		{"binomial", trees.Binomial(n, 0), 4},
		{"chain", trees.Chain(n, 0), 3},
	}
	sizes := []struct {
		name      string
		size, seg int
	}{
		{"eager", 6000, 2048},
		{"rendezvous", 48000, 16 << 10},
	}
	for _, sh := range shapes {
		for _, sz := range sizes {
			opt := core.DefaultOptions()
			opt.SegSize = sz.seg
			root := payload(0, sz.size)
			colls := []struct {
				name  string
				start func(c *simmpi.Comm) *core.Op
			}{
				{"bcast", func(c *simmpi.Comm) *core.Op {
					msg := comm.Msg{Size: sz.size, Space: comm.MemHost}
					if c.Rank() == 0 {
						msg.Data = root
					}
					return core.StartBcastFT(c, sh.tree, msg, opt)
				}},
				{"reduce", func(c *simmpi.Comm) *core.Op {
					return core.StartReduceFT(c, sh.tree, contrib(c.Rank(), sz.size), opt)
				}},
			}
			plans := []struct {
				name  string
				crash faults.Crash
			}{
				{"interior", faults.Crash{Rank: sh.mid, AfterSends: 1}},
				{"interior-first-send", faults.Crash{Rank: sh.mid}},
				{"leaf", faults.Crash{Rank: n - 1}},
				{"root", faults.Crash{Rank: 0}},
			}
			for _, co := range colls {
				for _, pl := range plans {
					name := fmt.Sprintf("%s/%s/%s/%s", sh.name, sz.name, co.name, pl.name)
					t.Run(name, func(t *testing.T) {
						plan := faults.Plan{Crashes: []faults.Crash{pl.crash}}
						proc := runFT(t, false, plan, co.start)
						flat := runFT(t, true, plan, co.start)
						if !proc.crashed[pl.crash.Rank] || proc.det.Confirms != 1 {
							t.Fatalf("crash never fired: crashed %v, detector %+v", proc.crashed, proc.det)
						}
						for r := 0; r < n; r++ {
							if proc.got[r] == proc.crashed[r] {
								t.Errorf("proc rank %d: returned %v, crashed %v", r, proc.got[r], proc.crashed[r])
							}
						}
						if proc.makespan != flat.makespan {
							t.Errorf("makespan: proc %v, flat %v", proc.makespan, flat.makespan)
						}
						if proc.det != flat.det || !reflect.DeepEqual(proc.crashed, flat.crashed) {
							t.Errorf("detector: proc %+v %v, flat %+v %v", proc.det, proc.crashed, flat.det, flat.crashed)
						}
						if !reflect.DeepEqual(proc.got, flat.got) || !reflect.DeepEqual(proc.masks, flat.masks) ||
							!reflect.DeepEqual(proc.errs, flat.errs) {
							t.Errorf("outcomes diverged:\nproc %v %v %q\nflat %v %v %q",
								proc.got, proc.masks, proc.errs, flat.got, flat.masks, flat.errs)
						}
						for r := 0; r < n; r++ {
							if !bytes.Equal(proc.out[r], flat.out[r]) {
								t.Errorf("rank %d: result bytes diverged between proc and flat mode", r)
							}
						}
					})
				}
			}
		}
	}
}
