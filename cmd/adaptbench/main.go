// Command adaptbench regenerates the paper's evaluation exhibits
// (Figures 7–11 and Table 1) on the simulated substrate.
//
// Usage:
//
//	adaptbench -exp fig9a                # one exhibit at full paper scale
//	adaptbench -exp all -scale quick     # everything, reduced scale
//	adaptbench -exp all -j 8             # cells on 8 workers, same output
//	adaptbench -exp fig9a -cpuprofile cpu.pprof -perf
//	adaptbench -list
//	adaptbench -ranks 1k,10k -ranks-coll bcast   # kernel-scaling ladder (make scale)
//
// Independent experiment cells (library × noise × size points) each own a
// private deterministic simulation kernel, so -j N runs them on N workers
// with output bit-identical to -j 1.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"adapt/internal/bench"
	"adapt/internal/faults"
	"adapt/internal/metrics"
	"adapt/internal/perf"
	"adapt/internal/trace"
	"adapt/internal/trace/analyze"
)

// validIDs returns the experiment ids -list prints, one per line.
func validIDs() string {
	ids := append(bench.Experiments(), bench.Extensions()...)
	return strings.Join(append(ids, "all"), "\n")
}

// knownExp reports whether id names an experiment.
func knownExp(id string) bool {
	for _, v := range strings.Split(validIDs(), "\n") {
		if id == v {
			return true
		}
	}
	return false
}

func main() {
	os.Exit(run())
}

func run() int {
	exp := flag.String("exp", "", "experiment id (fig7a..fig11b, table1, all)")
	scale := flag.String("scale", "full", "full (paper scale) or quick")
	out := flag.String("o", "", "write output to file instead of stdout")
	csvDir := flag.String("csv", "", "additionally write one CSV per table into this directory")
	jobs := flag.Int("j", bench.DefaultJobs(), "worker count for independent experiment cells (1 = serial)")
	list := flag.Bool("list", false, "list experiment ids")
	perfStats := flag.Bool("perf", false, "print kernel/buffer-pool counters to stderr when done")
	faultPlan := flag.String("faults", "", `fault plan for the ext-chaos exhibit, e.g. "seed=42; all: drop=0.1, jitter=30us"; crash rules ("crash@3", "crash@R:afterK") feed ext-crash`)
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file when done")
	traceFile := flag.String("trace", "", "write a Go execution trace to this file")
	ctrace := flag.String("ctrace", "", "capture causal event traces and write Chrome trace-event JSON (Perfetto) to this file")
	ctraceCap := flag.Int("ctrace-cap", 500_000, "per-cell causal-trace record cap (0 = unbounded)")
	ctraceReport := flag.Bool("ctrace-report", false, "print a critical-path/overlap report for the captured traces")
	adminAddr := flag.String("admin", "", "expose this process's own telemetry/pprof admin plane at this address")
	ranksLadder := flag.String("ranks", "", `kernel-scaling ladder: comma-separated rank counts ("1k,10k,100k,1m") run through proc- and flat-mode collectives, reporting events/s, peak RSS, and ranks/GB`)
	ranksColls := flag.String("ranks-coll", "bcast,reduce,allreduce", "collectives for the -ranks ladder")
	ranksCell := flag.String("ranks-cell", "", "internal: run one scale cell (mode/collective/ranks) in-process and print its JSON row")
	flag.Parse()

	if *list {
		fmt.Println(validIDs())
		return 0
	}
	if *ranksCell != "" {
		return runScaleCell(*ranksCell)
	}
	if *ranksLadder != "" {
		return runScaleLadder(os.Stdout, *ranksLadder, *ranksColls)
	}
	if *adminAddr != "" {
		admin, err := metrics.ServeAdmin(*adminAddr, metrics.AdminOpts{})
		if err != nil {
			fmt.Fprintln(os.Stderr, "adaptbench:", err)
			return 1
		}
		defer admin.Close()
		fmt.Fprintf(os.Stderr, "adaptbench: admin on %s\n", admin.Addr())
	}
	if *exp == "" {
		fmt.Fprintln(os.Stderr, "adaptbench: -exp required (try -list)")
		return 2
	}
	if !knownExp(*exp) {
		fmt.Fprintf(os.Stderr, "adaptbench: unknown experiment %q; valid ids:\n", *exp)
		fmt.Fprintln(os.Stderr, validIDs())
		return 2
	}
	var s bench.Scale
	switch *scale {
	case "full":
		s = bench.Full()
	case "quick":
		s = bench.Quick()
	default:
		fmt.Fprintf(os.Stderr, "adaptbench: unknown scale %q\n", *scale)
		return 2
	}
	if *faultPlan != "" {
		plan, err := faults.ParsePlan(*faultPlan)
		if err != nil {
			fmt.Fprintln(os.Stderr, "adaptbench:", err)
			return 2
		}
		s.FaultPlan = &plan
	}

	if *cpuProfile != "" {
		stop, err := perf.StartCPUProfile(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "adaptbench:", err)
			return 1
		}
		defer stop()
	}
	if *traceFile != "" {
		stop, err := perf.StartTrace(*traceFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "adaptbench:", err)
			return 1
		}
		defer stop()
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "adaptbench:", err)
			return 1
		}
		defer f.Close()
		w = io.MultiWriter(os.Stdout, f)
	}
	if *ctrace != "" || *ctraceReport {
		s.CTrace = &bench.TraceSink{Cap: *ctraceCap}
	}
	tables, err := bench.RunTablesParallel(*exp, s, *jobs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "adaptbench:", err)
		return 1
	}
	for _, t := range tables {
		t.Fprint(w)
	}
	if s.CTrace != nil {
		runs := s.CTrace.Runs()
		if *ctrace != "" {
			f, err := os.Create(*ctrace)
			if err != nil {
				fmt.Fprintln(os.Stderr, "adaptbench:", err)
				return 1
			}
			err = trace.WriteChrome(f, runs)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "adaptbench:", err)
				return 1
			}
			fmt.Fprintf(os.Stderr, "adaptbench: wrote %d causal trace runs to %s\n", len(runs), *ctrace)
		}
		if *ctraceReport {
			ctraceSummary(w, runs)
		}
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "adaptbench:", err)
			return 1
		}
		for _, t := range tables {
			f, err := os.Create(filepath.Join(*csvDir, t.ID+".csv"))
			if err != nil {
				fmt.Fprintln(os.Stderr, "adaptbench:", err)
				return 1
			}
			if err := t.WriteCSV(f); err != nil {
				f.Close()
				fmt.Fprintln(os.Stderr, "adaptbench:", err)
				return 1
			}
			f.Close()
		}
	}
	if *memProfile != "" {
		if err := perf.WriteHeapProfile(*memProfile); err != nil {
			fmt.Fprintln(os.Stderr, "adaptbench:", err)
			return 1
		}
	}
	if *perfStats {
		perf.Read().Fprint(os.Stderr)
	}
	return 0
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
