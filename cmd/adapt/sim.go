package main

// adapt sim runs a single simulated collective with free-form parameters
// (platform, library proxy, operation, message size, noise) and prints
// the IMB-style average time. It is the exploratory companion to adapt
// bench's fixed exhibits.
//
//	adapt sim -platform cori -nodes 32 -lib ompi-adapt -op bcast -size 4194304
//	adapt sim -platform psg -nodes 8 -lib ompi-adapt -op reduce -size 33554432
//	adapt sim -op bcast -size 4194304 -stats -util -trace 8

import (
	"fmt"
	"io"
	"os"
	"time"

	"adapt/internal/comm"
	"adapt/internal/imb"
	"adapt/internal/libmodel"
	"adapt/internal/netmodel"
	"adapt/internal/noise"
	"adapt/internal/sim"
	"adapt/internal/simmpi"
	"adapt/internal/trace"
)

// simNoiseFraction is the share of ranks that carry the noise injector,
// as in the paper's Figure 7 protocol (see EXPERIMENTS.md).
const simNoiseFraction = 0.02

func runSim(args []string, stdout, stderr io.Writer) int {
	fs := newFlags("sim", stderr)
	platform := fs.String("platform", "cori", "cori, stampede2 or psg")
	nodes := fs.Int("nodes", 8, "number of nodes")
	libName := fs.String("lib", "ompi-adapt", "library proxy (ompi-adapt, ompi-default, ompi-default-topo, intel, cray, mvapich)")
	opName := fs.String("op", "bcast", "bcast or reduce")
	size := fs.Int("size", 4<<20, "message size in bytes")
	noisePct := fs.Int("noise", 0, "noise level in percent (paper's 5/10 laws)")
	profile := fs.String("profile", "", "JSON platform profile file (overrides -platform/-nodes)")
	stats := fs.Bool("stats", false, "report per-repetition min/avg/max (barrier-fenced)")
	util := fs.Bool("util", false, "report the busiest simulated facilities")
	traceRanks := fs.Int("trace", 0, "trace one operation and print a timeline for the first N ranks")
	if fs.Parse(args) != nil {
		return 2
	}

	p, err := simPlatform(*profile, *platform, *nodes)
	if err != nil {
		return failed(stderr, "sim", err)
	}
	lib, err := libmodel.ByName(*libName, p)
	if err != nil {
		return failed(stderr, "sim", err)
	}
	var op imb.Op
	switch *opName {
	case "bcast":
		op = imb.Bcast
	case "reduce":
		op = imb.Reduce
	default:
		return failed(stderr, "sim", fmt.Errorf("unknown op %q", *opName))
	}
	spec := noise.Percent(*noisePct)
	spec.Fraction = simNoiseFraction

	cfg := imb.Config{Platform: p, Noise: spec, Library: lib, Op: op, Size: *size}
	if *stats {
		fmt.Fprintf(stdout, "%s %s %s on %s (%d ranks), noise=%s: %s\n",
			lib.Name, *opName, sizeStr(*size), p.Name, p.Topo.Size(), spec, imb.MeasureStats(cfg))
	} else {
		fmt.Fprintf(stdout, "%s %s %s on %s (%d ranks), noise=%s: avg %v per op\n",
			lib.Name, *opName, sizeStr(*size), p.Name, p.Topo.Size(), spec, imb.Measure(cfg))
	}
	if *util {
		w, end := simOnce(p, spec, lib, op, *size, nil)
		w.Net.FprintUtilization(stdout, end, 12)
	}
	if *traceRanks > 0 {
		tb := &trace.Buffer{Cap: 1 << 20}
		simOnce(p, spec, lib, op, *size, tb)
		tb.Summarize().Fprint(stdout)
		ranks := make([]int, min(*traceRanks, p.Topo.Size()))
		for i := range ranks {
			ranks[i] = i
		}
		fmt.Fprintln(stdout, "timeline (S send-done, R recv-done, C compute, · idle):")
		tb.Timeline(stdout, ranks, 72)
	}
	return 0
}

// simPlatform loads the JSON profile when one is named, else the
// built-in platform.
func simPlatform(profile, name string, nodes int) (*netmodel.Platform, error) {
	if profile == "" {
		return netmodel.ByName(name, nodes)
	}
	f, err := os.Open(profile)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return netmodel.LoadPlatform(f)
}

// simOnce reruns a single operation, traced into tb when it is non-nil,
// and returns the world and the makespan.
func simOnce(p *netmodel.Platform, spec noise.Spec, lib libmodel.Library, op imb.Op, size int, tb *trace.Buffer) (*simmpi.World, time.Duration) {
	k := sim.New()
	w := simmpi.NewWorld(k, p, spec)
	w.Trace = tb
	w.Spawn(func(c *simmpi.Comm) {
		msg := comm.Sized(size)
		if op == imb.Bcast {
			lib.Bcast(c, 0, msg, 0)
		} else {
			lib.Reduce(c, 0, msg, 0)
		}
	})
	return w, k.MustRun()
}

func sizeStr(n int) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%dMB", n>>20)
	case n >= 1<<10:
		return fmt.Sprintf("%dKB", n>>10)
	}
	return fmt.Sprintf("%dB", n)
}
