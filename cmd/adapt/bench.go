package main

// adapt bench regenerates the paper's evaluation exhibits (Figures 7–11
// and Table 1) and the extension exhibits on the simulated substrate,
// and runs the kernel-scaling ladder (scale.go).
//
//	adapt bench -exp fig9a                # one exhibit at full paper scale
//	adapt bench -exp all -scale quick     # everything, reduced scale
//	adapt bench -exp all -j 8             # cells on 8 workers, same output
//	adapt bench -list
//	adapt bench -ranks 1k,10k -ranks-coll bcast   # kernel-scaling ladder (make scale)
//
// Independent experiment cells (library × noise × size points) each own a
// private deterministic simulation kernel, so -j N runs them on N workers
// with output bit-identical to -j 1. For a CPU or heap profile of one
// exhibit, profile its benchmark: go test -bench BenchmarkFig9a
// -cpuprofile cpu.pprof.

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"adapt/internal/bench"
	"adapt/internal/faults"
	"adapt/internal/metrics"
	"adapt/internal/perf"
	"adapt/internal/trace"
	"adapt/internal/trace/analyze"
)

// ctraceCap is the per-cell causal-trace record cap.
const ctraceCap = 500_000

// experimentIDs returns the experiment ids -list prints.
func experimentIDs() []string {
	return append(append(bench.Experiments(), bench.Extensions()...), "all")
}

func runBench(args []string, stdout, stderr io.Writer) int {
	fs := newFlags("bench", stderr)
	exp := fs.String("exp", "", "experiment id (fig7a..fig11b, table1, ext-*, all)")
	scale := fs.String("scale", "full", "full (paper scale) or quick")
	csvDir := fs.String("csv", "", "additionally write one CSV per table into this directory")
	jobs := fs.Int("j", bench.DefaultJobs(), "worker count for independent experiment cells (1 = serial)")
	list := fs.Bool("list", false, "list experiment ids")
	perfStats := fs.Bool("perf", false, "print kernel/buffer-pool counters to stderr when done")
	faultPlan := fs.String("faults", "", `fault plan for the ext-chaos exhibit, e.g. "seed=42; all: drop=0.1, jitter=30us"; crash rules ("crash@3", "crash@R:afterK") feed ext-crash`)
	ctrace := fs.String("ctrace", "", "capture causal event traces and write Chrome trace-event JSON (Perfetto) to this file")
	ctraceReport := fs.Bool("ctrace-report", false, "print a critical-path/overlap report for the captured traces")
	adminAddr := fs.String("admin", "", "expose this process's own telemetry/pprof admin plane at this address")
	ranksLadder := fs.String("ranks", "", `kernel-scaling ladder: comma-separated rank counts ("1k,10k,100k,1m") run through proc- and flat-mode collectives, reporting events/s, peak RSS, and ranks/GB`)
	ranksColls := fs.String("ranks-coll", "bcast,reduce,allreduce", "collectives for the -ranks ladder")
	ranksCell := fs.String("ranks-cell", "", "internal: run one scale cell (mode/collective/ranks) in-process and print its JSON row")
	if fs.Parse(args) != nil {
		return 2
	}

	if *list {
		fmt.Fprintln(stdout, strings.Join(experimentIDs(), "\n"))
		return 0
	}
	if *ranksCell != "" {
		return runScaleCell(stdout, stderr, *ranksCell)
	}
	if *ranksLadder != "" {
		return runScaleLadder(stdout, stderr, *ranksLadder, *ranksColls)
	}
	if *adminAddr != "" {
		admin, err := metrics.ServeAdmin(*adminAddr, metrics.AdminOpts{})
		if err != nil {
			return failed(stderr, "bench", err)
		}
		defer admin.Close()
		fmt.Fprintf(stderr, "adapt bench: admin on %s\n", admin.Addr())
	}
	if *exp == "" {
		fmt.Fprintln(stderr, "adapt bench: -exp required (try -list)")
		return 2
	}
	if !slices.Contains(experimentIDs(), *exp) {
		fmt.Fprintf(stderr, "adapt bench: unknown experiment %q; valid ids:\n%s\n", *exp, strings.Join(experimentIDs(), "\n"))
		return 2
	}
	var s bench.Scale
	switch *scale {
	case "full":
		s = bench.Full()
	case "quick":
		s = bench.Quick()
	default:
		fmt.Fprintf(stderr, "adapt bench: unknown scale %q\n", *scale)
		return 2
	}
	if *faultPlan != "" {
		plan, err := faults.ParsePlan(*faultPlan)
		if err != nil {
			fmt.Fprintln(stderr, "adapt bench:", err)
			return 2
		}
		s.FaultPlan = &plan
	}
	if *ctrace != "" || *ctraceReport {
		s.CTrace = &bench.TraceSink{Cap: ctraceCap}
	}

	tables, err := bench.RunTablesParallel(*exp, s, *jobs)
	if err != nil {
		return failed(stderr, "bench", err)
	}
	for _, t := range tables {
		t.Fprint(stdout)
	}
	if s.CTrace != nil {
		runs := s.CTrace.Runs()
		if *ctrace != "" {
			if err := writeChrome(*ctrace, runs); err != nil {
				return failed(stderr, "bench", err)
			}
			fmt.Fprintf(stderr, "adapt bench: wrote %d causal trace runs to %s\n", len(runs), *ctrace)
		}
		if *ctraceReport {
			ctraceSummary(stdout, runs)
		}
	}
	if *csvDir != "" {
		if err := writeCSVs(*csvDir, tables); err != nil {
			return failed(stderr, "bench", err)
		}
	}
	if *perfStats {
		perf.Read().Fprint(stderr)
	}
	return 0
}

func writeChrome(path string, runs []trace.Run) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = trace.WriteChrome(f, runs)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeCSVs writes one <table id>.csv per table into dir.
func writeCSVs(dir string, tables []*bench.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, t := range tables {
		f, err := os.Create(filepath.Join(dir, t.ID+".csv"))
		if err != nil {
			return err
		}
		err = t.WriteCSV(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// ctraceSummary prints one line per captured run (critical-path
// attribution shares) and the full analyzer report for the longest run.
func ctraceSummary(w io.Writer, runs []trace.Run) {
	fmt.Fprintf(w, "\ncausal traces: %d runs\n", len(runs))
	longest, longestSpan := -1, time.Duration(0)
	for i, run := range runs {
		g := analyze.New(run)
		p := g.CriticalPath()
		fmt.Fprintf(w, "  [%d] %-40s %6d events  makespan %-12v link %s compute %s stall %s\n",
			i, run.Name, len(run.Records), p.Makespan.Round(time.Microsecond),
			sharePct(p.Link, p.Makespan), sharePct(p.Compute, p.Makespan), sharePct(p.Stall, p.Makespan))
		if p.Makespan > longestSpan {
			longest, longestSpan = i, p.Makespan
		}
	}
	if longest >= 0 {
		fmt.Fprintf(w, "\nlongest run [%d] %s:\n", longest, runs[longest].Name)
		analyze.New(runs[longest]).Report(w)
	}
}

func sharePct(part, whole time.Duration) string {
	if whole <= 0 {
		return "0%"
	}
	return fmt.Sprintf("%.0f%%", 100*float64(part)/float64(whole))
}
