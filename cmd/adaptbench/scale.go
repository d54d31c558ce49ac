package main

// The million-rank kernel-scaling ladder: adaptbench -ranks runs tree
// broadcast/reduce and allreduce at growing rank counts, in both the
// goroutine-per-rank (proc) and struct-per-rank (flat) drivers, and
// reports wall-clock event throughput, peak RSS, and ranks per GB of
// memory. Each cell re-execs this binary so VmHWM measures exactly one
// configuration. Rows land in BENCH_kernel.json via scripts/scale.sh.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"adapt/internal/comm"
	"adapt/internal/core"
	"adapt/internal/netmodel"
	"adapt/internal/noise"
	"adapt/internal/perf"
	"adapt/internal/sim"
	"adapt/internal/simmpi"
	"adapt/internal/trees"
)

const (
	ranksPerNode = 32      // Cori node shape; every rung is a multiple
	procRankCap  = 1 << 17 // proc mode stops here: goroutine stacks alone would blow the RSS budget
	scaleMsgSize = 1 << 10 // eager-path payload; the ladder stresses event dispatch, not bytes
	rssBudgetKB  = 8 << 20 // 8 GB: the ≥100k broadcast rung must fit under this
)

type scaleRow struct {
	Name         string  `json:"name"` // ScaleFlatBcast/102400 — keyed like the microbench rows
	Mode         string  `json:"mode"`
	Collective   string  `json:"collective"`
	Ranks        int     `json:"ranks"`
	Events       uint64  `json:"events"`
	WallNS       int64   `json:"wall_ns"`
	EventsPerSec float64 `json:"events_per_sec"`
	MakespanNS   int64   `json:"makespan_ns"`
	RSSKB        int64   `json:"rss_kb"`
	RanksPerGB   float64 `json:"ranks_per_gb"`
}

// parseRung accepts "1k", "10k", "100k", "1m", or a plain integer, and
// rounds down to a whole number of nodes.
func parseRung(s string) (int, error) {
	mult := 1
	t := strings.ToLower(strings.TrimSpace(s))
	switch {
	case strings.HasSuffix(t, "m"):
		mult, t = 1<<20, strings.TrimSuffix(t, "m")
	case strings.HasSuffix(t, "k"):
		mult, t = 1<<10, strings.TrimSuffix(t, "k")
	}
	n, err := strconv.Atoi(t)
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("bad rank count %q", s)
	}
	r := n * mult
	if r < ranksPerNode {
		r = ranksPerNode
	}
	return r - r%ranksPerNode, nil
}

// runScaleCell executes one "mode/collective/ranks" cell in-process and
// prints its JSON row to stdout (the parent re-execed us for a clean
// VmHWM). Exit status 1 on any failure.
func runScaleCell(spec string) int {
	parts := strings.Split(spec, "/")
	if len(parts) != 3 {
		fmt.Fprintf(os.Stderr, "adaptbench: bad -ranks-cell %q (want mode/collective/ranks)\n", spec)
		return 2
	}
	mode, coll := parts[0], parts[1]
	ranks, err := strconv.Atoi(parts[2])
	if err != nil {
		fmt.Fprintf(os.Stderr, "adaptbench: bad -ranks-cell rank count %q\n", parts[2])
		return 2
	}
	row, err := measureCell(mode, coll, ranks)
	if err != nil {
		fmt.Fprintln(os.Stderr, "adaptbench:", err)
		return 1
	}
	b, err := json.Marshal(row)
	if err != nil {
		fmt.Fprintln(os.Stderr, "adaptbench:", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

func measureCell(mode, coll string, ranks int) (scaleRow, error) {
	p := netmodel.Cori(ranks / ranksPerNode)
	// O(classes) facilities: the exact per-rank model would spend the
	// whole RSS budget on resource structs and their names.
	p.Aggregate = true
	tree := trees.Binomial(ranks, 0)
	opt := core.DefaultOptions()
	msg := comm.Sized(scaleMsgSize) // payload-elided: pure event-rate measurement

	k := sim.New()
	w := simmpi.NewWorld(k, p, noise.None)
	var ops []*core.Op
	switch mode {
	case "flat":
		w.SpawnFlat(func(c *simmpi.Comm) {
			var op *core.Op
			switch coll {
			case "bcast":
				op = core.StartBcast(c, tree, msg, opt)
			case "reduce":
				op = core.StartReduce(c, tree, msg, opt)
			case "allreduce":
				op = core.StartAllreduce(c, tree, msg, opt)
			default:
				panic("unknown collective " + coll)
			}
			ops = append(ops, op)
		})
	case "proc":
		w.Spawn(func(c *simmpi.Comm) {
			switch coll {
			case "bcast":
				core.Bcast(c, tree, msg, opt)
			case "reduce":
				core.Reduce(c, tree, msg, opt)
			case "allreduce":
				core.Allreduce(c, tree, msg, opt)
			default:
				panic("unknown collective " + coll)
			}
		})
	default:
		return scaleRow{}, fmt.Errorf("unknown scale mode %q", mode)
	}

	perf.Reset()
	start := time.Now()
	makespan := k.MustRun()
	wall := time.Since(start)
	snap := perf.Read()
	for i, op := range ops {
		if !op.Done() {
			return scaleRow{}, fmt.Errorf("%s/%s/%d: rank %d op never completed", mode, coll, ranks, i)
		}
	}
	rss, err := peakRSSKB()
	if err != nil {
		return scaleRow{}, err
	}
	row := scaleRow{
		Name: fmt.Sprintf("Scale%s%s/%d", title(mode), title(coll), ranks),
		Mode: mode, Collective: coll, Ranks: ranks,
		Events: snap.EventsDispatched, WallNS: wall.Nanoseconds(),
		MakespanNS: makespan.Nanoseconds(), RSSKB: rss,
	}
	if wall > 0 {
		row.EventsPerSec = float64(snap.EventsDispatched) / wall.Seconds()
	}
	if rss > 0 {
		row.RanksPerGB = float64(ranks) / (float64(rss) / float64(1<<20))
	}
	return row, nil
}

func title(s string) string {
	if s == "" {
		return s
	}
	return strings.ToUpper(s[:1]) + s[1:]
}

// peakRSSKB reads the process's high-water resident set from
// /proc/self/status (VmHWM, in kB).
func peakRSSKB() (int64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) >= 2 && f[0] == "VmHWM:" {
			return strconv.ParseInt(f[1], 10, 64)
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// runScaleLadder fans the rung × collective × mode grid out to child
// processes, prints a table, enforces the scaling gates, and optionally
// writes the rows as a JSON array.
func runScaleLadder(w io.Writer, ladder, colls, jsonPath string) int {
	var rungs []int
	for _, s := range strings.Split(ladder, ",") {
		r, err := parseRung(s)
		if err != nil {
			fmt.Fprintln(os.Stderr, "adaptbench:", err)
			return 2
		}
		rungs = append(rungs, r)
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "adaptbench:", err)
		return 1
	}
	var rows []scaleRow
	for _, ranks := range rungs {
		for _, coll := range strings.Split(colls, ",") {
			for _, mode := range []string{"proc", "flat"} {
				if mode == "proc" && ranks > procRankCap {
					fmt.Fprintf(os.Stderr, "adaptbench: skipping proc/%s/%d (goroutine stacks exceed the RSS budget past %d ranks)\n",
						coll, ranks, procRankCap)
					continue
				}
				spec := fmt.Sprintf("%s/%s/%d", mode, coll, ranks)
				fmt.Fprintf(os.Stderr, "adaptbench: scale cell %s\n", spec)
				out, err := exec.Command(self, "-ranks-cell", spec).Output()
				if err != nil {
					if ee, ok := err.(*exec.ExitError); ok {
						os.Stderr.Write(ee.Stderr)
					}
					fmt.Fprintf(os.Stderr, "adaptbench: cell %s failed: %v\n", spec, err)
					return 1
				}
				var row scaleRow
				if err := json.Unmarshal(bytes.TrimSpace(out), &row); err != nil {
					fmt.Fprintf(os.Stderr, "adaptbench: cell %s: bad row %q: %v\n", spec, out, err)
					return 1
				}
				rows = append(rows, row)
			}
		}
	}

	fmt.Fprintf(w, "%-6s %-10s %10s %14s %12s %10s %12s\n",
		"mode", "coll", "ranks", "events/s", "events", "rss", "ranks/GB")
	for _, r := range rows {
		fmt.Fprintf(w, "%-6s %-10s %10d %14.0f %12d %9dM %12.0f\n",
			r.Mode, r.Collective, r.Ranks, r.EventsPerSec, r.Events, r.RSSKB>>10, r.RanksPerGB)
	}

	if err := scaleGates(rows); err != nil {
		fmt.Fprintln(os.Stderr, "adaptbench: FAIL:", err)
		return 1
	}
	if jsonPath != "" {
		b, err := mergeScaleRows(jsonPath, rows)
		if err == nil {
			err = os.WriteFile(jsonPath, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "adaptbench:", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "adaptbench: wrote %s\n", jsonPath)
	}
	return 0
}

// mergeScaleRows splices the fresh ladder rows into an existing JSON
// array (e.g. BENCH_kernel.json next to the microbench rows), replacing
// any stale Scale* rows from a previous run. A missing or empty file
// yields just the new rows.
func mergeScaleRows(path string, rows []scaleRow) ([]byte, error) {
	var all []map[string]interface{}
	if b, err := os.ReadFile(path); err == nil && len(bytes.TrimSpace(b)) > 0 {
		if err := json.Unmarshal(b, &all); err != nil {
			return nil, fmt.Errorf("existing %s is not a JSON array: %v", path, err)
		}
		keep := all[:0]
		for _, m := range all {
			if name, _ := m["name"].(string); !strings.HasPrefix(name, "Scale") {
				keep = append(keep, m)
			}
		}
		all = keep
	}
	for _, r := range rows {
		b, err := json.Marshal(r)
		if err != nil {
			return nil, err
		}
		var m map[string]interface{}
		if err := json.Unmarshal(b, &m); err != nil {
			return nil, err
		}
		all = append(all, m)
	}
	return json.MarshalIndent(all, "", "  ")
}

// scaleGates enforces the ladder's acceptance criteria: every ≥100k
// broadcast rung fits the 8 GB RSS budget, and wherever both drivers ran
// the same broadcast cell at ≥100k ranks, flat must beat proc on BOTH
// throughput and peak memory.
func scaleGates(rows []scaleRow) error {
	proc := map[int]scaleRow{}
	for _, r := range rows {
		if r.Collective == "bcast" && r.Mode == "proc" {
			proc[r.Ranks] = r
		}
	}
	for _, r := range rows {
		if r.Collective != "bcast" || r.Ranks < 100_000 {
			continue
		}
		if r.RSSKB >= rssBudgetKB {
			return fmt.Errorf("%s: peak RSS %d kB breaks the %d kB budget", r.Name, r.RSSKB, int(rssBudgetKB))
		}
		if p, ok := proc[r.Ranks]; ok && r.Mode == "flat" {
			if r.EventsPerSec <= p.EventsPerSec {
				return fmt.Errorf("flat bcast at %d ranks (%.0f events/s) does not beat proc (%.0f events/s)",
					r.Ranks, r.EventsPerSec, p.EventsPerSec)
			}
			if r.RSSKB >= p.RSSKB {
				return fmt.Errorf("flat bcast at %d ranks (%d kB) does not beat proc (%d kB)",
					r.Ranks, r.RSSKB, p.RSSKB)
			}
		}
	}
	return nil
}
