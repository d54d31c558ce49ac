package main

// adapt trace analyzes the causal trace files adapt bench -ctrace writes
// (Chrome trace-event JSON, loadable in Perfetto).
//
//	adapt trace t.json                    # full report for every run
//	adapt trace -list-runs t.json         # captured run names
//	adapt trace -run 3 -critical t.json   # critical path of run 3
//	adapt trace -overlap -lanes t.json    # selected sections only
//
// The critical path is the chain of causally linked events (callback →
// posted op, matched receive → send) that ends at the run's last event;
// its final timestamp is the run's makespan. Each hop's wait is
// attributed to link wait, compute, or pipeline stall.

import (
	"fmt"
	"io"
	"os"
	"strconv"

	"adapt/internal/trace"
	"adapt/internal/trace/analyze"
)

func runTrace(args []string, stdout, stderr io.Writer) int {
	fs := newFlags("trace", stderr)
	listRuns := fs.Bool("list-runs", false, "list the captured runs and exit")
	runSel := fs.String("run", "", "select one run by index or name (default: all)")
	critical := fs.Bool("critical", false, "print the critical path with per-hop attribution")
	overlap := fs.Bool("overlap", false, "print per-level send overlap for tree collectives")
	lanes := fs.Bool("lanes", false, "print per-segment transfer lanes")
	if fs.Parse(args) != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "adapt trace: exactly one trace file required (from adapt bench -ctrace)")
		return 2
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return failed(stderr, "trace", err)
	}
	runs, err := trace.ReadChrome(f)
	f.Close()
	if err != nil {
		return failed(stderr, "trace", err)
	}
	if *listRuns {
		for i, r := range runs {
			fmt.Fprintf(stdout, "[%d] %s (%d events)\n", i, r.Name, len(r.Records))
		}
		return 0
	}

	selected := runs
	if *runSel != "" {
		selected = nil
		if idx, err := strconv.Atoi(*runSel); err == nil && idx >= 0 && idx < len(runs) {
			selected = runs[idx : idx+1]
		} else {
			for _, r := range runs {
				if r.Name == *runSel {
					selected = append(selected, r)
				}
			}
		}
		if len(selected) == 0 {
			fmt.Fprintf(stderr, "adapt trace: no run %q (try -list-runs)\n", *runSel)
			return 2
		}
	}

	sections := *critical || *overlap || *lanes
	for i, r := range selected {
		if i > 0 {
			fmt.Fprintln(stdout)
		}
		g := analyze.New(r)
		if !sections {
			g.Report(stdout)
			continue
		}
		fmt.Fprintf(stdout, "run %q: %d events\n", r.Name, len(r.Records))
		p := g.CriticalPath()
		if *critical {
			analyze.FprintPath(stdout, p)
		}
		if *overlap {
			analyze.FprintOverlap(stdout, g.OverlapByLevel())
		}
		if *lanes {
			analyze.FprintLanes(stdout, g.SegmentLanes(), p.Makespan, 64, 32)
		}
	}
	return 0
}
