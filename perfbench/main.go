// Command perfbench is the repository benchmark. It runs one named
// workload against the program's public packages, checks every
// operation's result, and prints one JSON line of metrics:
//
//	bash perfbench/run.sh --workload sim-flat-allreduce --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it measures in a few child processes of itself and
// prints the end-to-end metrics of BENCHMARK.json; with --trace 1 it
// measures in one process, records spans around its calls into each
// layer, writes them under .bench_build/perfbench, and prints the
// per-layer metrics.
// README.md in this directory defines every metric.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"adapt/internal/perf"
)

// workload is one named input set. run measures it for cfg.seconds and
// fills a report; it returns an error only when it cannot measure at all.
type workload struct {
	name string
	run  func(cfg config, tr *tracer) (*report, error)
}

var workloads = []workload{
	{"sim-flat-allreduce", runSimFlat},
	{"sim-paper-lossy", runSimLossy},
	{"serve-runtime-allreduce", runServe},
}

type config struct {
	seed    int64
	seconds time.Duration
}

// report is what a workload measured.
type report struct {
	attempted, failed int
	e2e, layer        map[string]float64
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// fail records one failed operation and says why on stderr.
func (r *report) fail(format string, args ...any) {
	r.failed++
	fmt.Fprintf(os.Stderr, "perfbench: FAILED: "+format+"\n", args...)
}

// probe brackets a timed phase with the process-wide counters every
// workload reports per operation.
type probe struct {
	wall time.Time
	cpu  cpuTime
	gc   gcReading
	perf perf.Snapshot
}

func startProbe() (probe, error) {
	runtime.GC()
	cpu, err := readCPU()
	return probe{wall: time.Now(), cpu: cpu, gc: readGC(), perf: perf.Read()}, err
}

// finish fills cpu_us_per_op and the Go runtime and buffer-pool layer
// metrics for ops operations completed since p.
func (p probe) finish(r *report, ops int) error {
	cpu, err := readCPU()
	if err != nil {
		return err
	}
	if ops == 0 {
		return errors.New("no operation completed in the timed phase")
	}
	gc, d := readGC(), perf.Read().Delta(p.perf)
	per := func(x float64) float64 { return x / float64(ops) }
	r.e2e["cpu_us_per_op"] = per(float64(cpu.sub(p.cpu).total()) / float64(time.Microsecond))
	r.layer["go.gc_cycles_per_op"] = per(float64(gc.Cycles - p.gc.Cycles))
	r.layer["go.gc_pause_us_per_op"] = per(float64(gc.Pause-p.gc.Pause) / float64(time.Microsecond))
	if d.BufGets > 0 {
		r.layer["comm.pool_hit_ratio"] = float64(d.BufHits) / float64(d.BufGets)
	}
	return nil
}

// spec is the part of BENCHMARK.json this program reads: the metric
// names and units it must print.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// metricsFor selects the metrics of one run: every end-to-end metric of
// the spec untraced, every per-layer metric traced. A layer the workload
// does not reach reads 0; a missing end-to-end metric or a name the spec
// does not list is a benchmark bug.
func metricsFor(s spec, r *report, traced bool) (map[string]metricOut, error) {
	known := map[string]bool{}
	for _, m := range append(append([]specMetric(nil), s.EndToEnd...), s.PerLayer...) {
		known[m.Name] = true
	}
	for _, set := range []map[string]float64{r.e2e, r.layer} {
		for name := range set {
			if !known[name] {
				return nil, fmt.Errorf("metric %q is not in BENCHMARK.json", name)
			}
		}
	}
	out := map[string]metricOut{}
	if !traced {
		for _, m := range s.EndToEnd {
			v, ok := r.e2e[m.Name]
			if !ok {
				return nil, fmt.Errorf("end-to-end metric %q was not measured", m.Name)
			}
			out[m.Name] = metricOut{v, m.Unit}
		}
		return out, nil
	}
	for _, m := range s.PerLayer {
		out[m.Name] = metricOut{r.layer[m.Name], m.Unit}
	}
	return out, nil
}

// Paths relative to the checkout's root, where the benchmark runs.
const (
	specPath = "BENCHMARK.json"
	traceDir = ".bench_build/perfbench" // run.sh builds here too
)

// procs is how many processes share an untraced run, one after another,
// each measuring an equal part of --seconds. On the host this was tuned
// on a process keeps one speed for its whole life, but the next may run
// a quarter faster or slower (sim-paper-lossy at 1 MiB: four repetitions
// within 1% of each other in one process, process medians from 5.2 to
// 7.1 s), so a run of one process drew its whole spread from that lottery.
const procs = 5

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload name (see BENCHMARK.json)")
	seed := flag.Int64("seed", 1, "workload seed: derives every random input")
	seconds := flag.Int("seconds", 30, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 records spans and prints the per-layer metrics")
	share := flag.Int("share", 0, "internal: measure --seconds/share in this process and print its own result")
	flag.Parse()

	b, err := os.ReadFile(specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", specPath, err)
		return 2
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	listed := false
	for _, w := range s.Workloads {
		listed = listed || w.Name == *name
	}
	if wl == nil || !listed || *seconds < 1 || (*trace != 0 && *trace != 1) || *share < 0 || (*share > 0 && *trace != 0) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d, share %d)\n",
			*name, *seconds, *trace, *share)
		return 2
	}

	// One P: on a 2-vCPU virtual machine, goroutine wake-ups across vCPUs
	// made run-to-run spreads 2-3 times wider than the host's own drift.
	const gomaxprocs = 1
	runtime.GOMAXPROCS(gomaxprocs)
	fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d seconds=%d trace=%d share=%d GOMAXPROCS=%d of %d CPUs\n",
		wl.name, *seed, *seconds, *trace, *share, gomaxprocs, runtime.NumCPU())

	cfg := config{seed: *seed, seconds: time.Duration(*seconds) * time.Second}
	if *share > 0 {
		// One part of an untraced run: its parent probes the host and
		// prints the run's result.
		cfg.seconds /= time.Duration(*share)
		rep, err := measure(*wl, cfg, nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.name, err)
			return 1
		}
		return emit(s, rep, false)
	}

	calib := []float64{ms(hostCalib()), ms(hostCalib()), ms(hostCalib())}
	var rep *report
	if *trace == 1 {
		rep, err = measure(*wl, cfg, newTracer())
	} else {
		rep, err = measureInProcesses(*wl, cfg)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.name, err)
		return 1
	}
	calib = append(calib, ms(hostCalib()), ms(hostCalib()), ms(hostCalib()))
	rep.layer["host.calib_ms"], _ = median(calib)
	// Every run, traced or not, shows the host probe; only the traced
	// run carries it as a metric.
	fmt.Printf("host.calib_ms %.3f\n", rep.layer["host.calib_ms"])
	return emit(s, rep, *trace == 1)
}

// measure runs wl in this process and adds its peak resident set and,
// when traced, the layers' self times, writing the spans out.
func measure(wl workload, cfg config, tr *tracer) (*report, error) {
	rep, err := wl.run(cfg, tr)
	if err != nil {
		return nil, err
	}
	if _, ok := rep.e2e["peak_rss_mb"]; !ok {
		rss, err := peakRSSKB()
		if err != nil {
			return nil, fmt.Errorf("peak RSS: %w", err)
		}
		rep.e2e["peak_rss_mb"] = float64(rss) / 1024
	}
	if tr == nil {
		return rep, nil
	}
	spans := tr.finished()
	self := selfTimes(spans)
	roots := 0
	for _, sp := range spans {
		if sp.Parent < 0 {
			roots++
		}
	}
	for layer, d := range self {
		rep.layer[layer+".self_us_per_op"] = float64(d) / float64(time.Microsecond) / float64(roots)
	}
	path, err := writeTrace(traceDir, wl.name, cfg.seed, spans, self)
	if err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d spans -> %s\n", len(spans), path)
	return rep, nil
}

// measureInProcesses runs wl untraced as procs child processes of this
// program, one after another, each measuring cfg.seconds/procs and
// printing its own result line. Each child draws its inputs from its own
// seed derived from cfg.seed, so a run's medians do not rest on one noise
// pattern or request sequence. The run's operation counts are the
// children's sums, and each end-to-end metric is the median over them.
func measureInProcesses(wl workload, cfg config) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	// A child takes its share plus set-up and one repetition; this leaves
	// room for a slow one and keeps all of them within the run's limit.
	timeout := 2*cfg.seconds/procs + 20*time.Second
	rep := newReport()
	values := map[string][]float64{}
	for i := 1; i <= procs; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		seed := splitmix(cfg.seed, streamProcess<<8|uint64(i))
		cmd := exec.CommandContext(ctx, exe, "--workload", wl.name, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.Itoa(int(cfg.seconds/time.Second)), "--trace", "0", "--share", strconv.Itoa(procs))
		cmd.Stderr = os.Stderr
		// A child outlives no parent, however the parent ends.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		out, err := cmd.Output()
		cancel()
		if err != nil {
			return nil, fmt.Errorf("process %d of %d: %w", i, procs, err)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var r result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
			return nil, fmt.Errorf("process %d of %d: result line: %w", i, procs, err)
		}
		rep.attempted += r.Attempted
		rep.failed += r.Failed
		for name, m := range r.Metrics {
			values[name] = append(values[name], m.Value)
		}
	}
	for name, vs := range values {
		rep.e2e[name], _ = median(vs)
	}
	return rep, nil
}

// emit prints the summary to stderr and the result line to stdout.
func emit(s spec, rep *report, traced bool) int {
	res := result{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed}
	var err error
	if res.Metrics, err = metricsFor(s, rep, traced); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if res.Attempted < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: no operation attempted")
		return 1
	}
	printSummary(rep)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// printSummary writes every measured value, end-to-end and per layer, to
// stderr for people reading a run's log.
func printSummary(r *report) {
	for _, set := range []map[string]float64{r.e2e, r.layer} {
		names := make([]string, 0, len(set))
		for n := range set {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(os.Stderr, "perfbench:   %-34s %.6g\n", n, set[n])
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: attempted %d failed %d\n", r.attempted, r.failed)
}
