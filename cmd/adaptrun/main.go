// Command adaptrun launches an N-process collective run over TCP
// loopback: it spawns N worker copies of itself (one OS process per
// rank), distributes the rendezvous address map through a coordinator
// socket, runs the requested collectives from the conformance registry
// on the nettransport substrate, and gathers per-rank results. On a
// clean run each final buffer is checked byte-for-byte against the
// simulator's golden run of the same registry case.
//
// Examples:
//
//	adaptrun -n 8                           # bcast, reduce, allreduce on 8 processes
//	adaptrun -n 4 -coll core/alltoall       # any registry case by full name
//	adaptrun -n 4 -coll bcast -crash 2:1    # kill rank 2 mid-run (FT path)
//	adaptrun -n 4 -perf -trace /tmp/tr      # counters + per-worker Perfetto spans
//
// A crash run arms the fail-stop path: the named rank's process calls
// os.Exit at its crash point, every survivor detects the vanished peer
// through the lease-based failure detector, and the launcher reports
// either healed completion (non-root victim) or each survivor's
// structured *faults.RankFailedError (dead root) — never a hang.
package main

import (
	"bytes"
	"encoding/gob"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"adapt/internal/conform"
	"adapt/internal/core"
	"adapt/internal/faults"
	"adapt/internal/hwloc"
	"adapt/internal/netmodel"
	"adapt/internal/nettransport"
	"adapt/internal/perf"
	"adapt/internal/trace"
)

// collAliases maps short names to conformance-registry case names; any
// full registry name is also accepted verbatim.
var collAliases = map[string]string{
	"bcast":     "core/bcast-binomial",
	"reduce":    "core/reduce",
	"allreduce": "core/allreduce",
	"allgather": "core/allgather",
	"alltoall":  "core/alltoall",
	"gather":    "core/gather",
	"scatter":   "core/scatter",
	"barrier":   "coll/barrier",
}

// ftAliases maps short names to fail-stop registry cases for -crash runs.
var ftAliases = map[string]string{
	"bcast":  "ft/bcast-binomial",
	"reduce": "ft/reduce-binomial",
}

// workerExitGrace bounds how long a finished run waits for its workers
// to exit.
const workerExitGrace = 10 * time.Second

// workerReport is one rank's gob-encoded result payload, shipped back on
// the control connection.
type workerReport struct {
	Rank    int
	Results []collResult
	// Net-path counters for the launcher's aggregate line; Trouble must
	// stay zero on a clean loopback run (TestE2ECleanVerified gates on it).
	FramesOut, BytesOut, FramesIn, BytesIn, Trouble uint64
}

// collResult is one collective's outcome on one rank.
type collResult struct {
	Coll       string
	Data       []byte // final buffer (nil for size-only results)
	Survivors  []bool // FT runs: the rank's reported survivor mask
	Err        string // structured error text ("" on success)
	RankFailed bool   // Err unwraps to *faults.RankFailedError
}

func main() {
	if os.Getenv("ADAPT_NET_WORKER") != "" {
		os.Exit(workerMain())
	}
	os.Exit(launcherMain())
}

// ---- launcher ----

func launcherMain() int {
	n := flag.Int("n", 4, "number of worker processes (ranks)")
	colls := flag.String("coll", "bcast,reduce,allreduce", "comma-separated collectives (aliases or registry case names)")
	size := flag.Int("size", 0, "payload bytes (0 = 128×ranks; must divide by 8×ranks)")
	crash := flag.String("crash", "", "fail-stop rule RANK:AFTERSENDS, e.g. 2:1 (switches to FT collectives)")
	timeout := flag.Duration("timeout", 60*time.Second, "bound on rendezvous and gather")
	perfStats := flag.Bool("perf", false, "print aggregate socket counters")
	traceDir := flag.String("trace", "", "directory for per-worker Perfetto trace JSON")
	flag.Parse()

	if *n < 2 {
		fmt.Fprintln(os.Stderr, "adaptrun: -n must be at least 2")
		return 2
	}
	if *size == 0 {
		*size = 128 * *n
	}
	if *size%(8**n) != 0 {
		fmt.Fprintf(os.Stderr, "adaptrun: -size %d must be a multiple of 8×%d ranks\n", *size, *n)
		return 2
	}
	crashPlan, err := parseCrash(*crash, *n)
	if err != nil {
		fmt.Fprintf(os.Stderr, "adaptrun: %v\n", err)
		return 2
	}
	names, err := resolveColls(*colls, crashPlan != nil)
	if err != nil {
		fmt.Fprintf(os.Stderr, "adaptrun: %v\n", err)
		return 2
	}
	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "adaptrun: %v\n", err)
			return 1
		}
	}

	co, err := nettransport.NewCoordinator(*n)
	if err != nil {
		fmt.Fprintf(os.Stderr, "adaptrun: coordinator: %v\n", err)
		return 1
	}
	defer co.Close()

	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "adaptrun: %v\n", err)
		return 1
	}
	procs := make([]*exec.Cmd, *n)
	for r := 0; r < *n; r++ {
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(),
			"ADAPT_NET_WORKER=1",
			fmt.Sprintf("ADAPT_NET_RANK=%d", r),
			fmt.Sprintf("ADAPT_NET_N=%d", *n),
			"ADAPT_NET_COORD="+co.Addr(),
			"ADAPT_NET_COLLS="+strings.Join(names, ","),
			fmt.Sprintf("ADAPT_NET_SIZE=%d", *size),
			"ADAPT_NET_CRASH="+*crash,
			"ADAPT_NET_TRACE="+*traceDir,
		)
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			fmt.Fprintf(os.Stderr, "adaptrun: spawn rank %d: %v\n", r, err)
			return 1
		}
		procs[r] = cmd
	}
	// Reap every worker on the way out. After a completed gather the
	// workers are still closing their endpoints and writing their traces,
	// so they get until the grace deadline to exit; a worker still running
	// then, or any worker of a failed run, is killed, so no run leaves
	// orphans.
	var grace time.Time
	defer func() {
		for _, p := range procs {
			exited := make(chan struct{})
			go func() { p.Wait(); close(exited) }()
			select {
			case <-exited:
			case <-time.After(time.Until(grace)):
				p.Process.Kill()
				<-exited
			}
		}
	}()

	if err := co.Rendezvous(nil, *timeout); err != nil {
		fmt.Fprintf(os.Stderr, "adaptrun: %v\n", err)
		return 1
	}
	results := co.Gather(*timeout)
	grace = time.Now().Add(workerExitGrace)

	reports := make([]*workerReport, *n)
	for _, res := range results {
		if res.Lost {
			continue
		}
		var rep workerReport
		if err := gob.NewDecoder(bytes.NewReader(res.Payload)).Decode(&rep); err != nil {
			fmt.Fprintf(os.Stderr, "adaptrun: rank %d report: %v\n", res.Rank, err)
			return 1
		}
		reports[res.Rank] = &rep
	}
	return summarize(*n, *size, names, crashPlan, results, reports, *perfStats)
}

// summarize validates the gathered reports and prints the outcome.
// Returns the process exit code.
func summarize(n, size int, names []string, crashPlan *faults.Crash,
	results []nettransport.WorkerResult, reports []*workerReport, perfStats bool) int {
	code := 0
	deadRank := -1
	if crashPlan != nil {
		deadRank = crashPlan.Rank
	}
	for r := 0; r < n; r++ {
		if reports[r] != nil {
			continue
		}
		if r == deadRank {
			fmt.Printf("rank %d: lost (planned crash) — %s\n", r, results[r].Err)
			continue
		}
		fmt.Fprintf(os.Stderr, "adaptrun: rank %d lost unexpectedly: %s\n", r, results[r].Err)
		code = 1
	}

	var goldens map[string][][]byte
	if crashPlan == nil {
		goldens = computeGoldens(n, size, names)
	}
	for i, name := range names {
		ok := true
		for r := 0; r < n; r++ {
			rep := reports[r]
			if rep == nil {
				continue
			}
			cr := rep.Results[i]
			if cr.Err != "" {
				kind := "error"
				if cr.RankFailed {
					kind = "rank-failed"
				}
				fmt.Printf("%-24s rank %d: %s: %s\n", name, r, kind, cr.Err)
				// A dead root makes RankFailedError the *correct* outcome;
				// anything unstructured is a failure.
				if !cr.RankFailed {
					code = 1
				}
				ok = false
				continue
			}
			if goldens != nil && !bytes.Equal(goldens[name][r], cr.Data) {
				fmt.Printf("%-24s rank %d: DIVERGES from simulator golden (%d vs %d bytes)\n",
					name, r, len(goldens[name][r]), len(cr.Data))
				code = 1
				ok = false
			}
			if crashPlan != nil && cr.Survivors != nil && deadRank >= 0 && cr.Survivors[deadRank] {
				fmt.Printf("%-24s rank %d: survivor mask still counts dead rank %d\n", name, r, deadRank)
				code = 1
				ok = false
			}
		}
		switch {
		case ok && goldens != nil:
			fmt.Printf("%-24s ok (%d ranks, %dB, verified against simmpi golden)\n", name, n, size)
		case ok:
			fmt.Printf("%-24s ok (%d ranks, %dB)\n", name, n, size)
		}
	}

	var framesOut, bytesOut, framesIn, bytesIn, trouble uint64
	for _, rep := range reports {
		if rep == nil {
			continue
		}
		framesOut += rep.FramesOut
		bytesOut += rep.BytesOut
		framesIn += rep.FramesIn
		bytesIn += rep.BytesIn
		trouble += rep.Trouble
	}
	if perfStats {
		fmt.Printf("net: frames out %d (%d B), frames in %d (%d B), trouble %d\n",
			framesOut, bytesOut, framesIn, bytesIn, trouble)
	}
	if crashPlan == nil && trouble != 0 {
		fmt.Fprintf(os.Stderr, "adaptrun: clean run moved fault counters (trouble=%d)\n", trouble)
		code = 1
	}
	return code
}

// computeGoldens runs each case on the simulator — the specification the
// socket run must reproduce byte-for-byte.
func computeGoldens(n, size int, names []string) map[string][][]byte {
	topo := hwloc.New(n, 1, 1)
	p := netmodel.Cori(1).WithTopo(topo)
	out := make(map[string][][]byte, len(names))
	for i, name := range names {
		cs, ok := findCase(topo, size, name)
		if !ok {
			continue
		}
		opt := runOptions(i)
		g := conform.RunCase(p, cs, opt, nil, faults.Recovery{})
		if g.Err != nil {
			fmt.Fprintf(os.Stderr, "adaptrun: golden %s: %v\n", name, g.Err)
			os.Exit(1)
		}
		out[name] = g.Out
	}
	return out
}

// ---- worker ----

func workerMain() int {
	rank := envInt("ADAPT_NET_RANK")
	n := envInt("ADAPT_NET_N")
	size := envInt("ADAPT_NET_SIZE")
	names := strings.Split(os.Getenv("ADAPT_NET_COLLS"), ",")
	crashPlan, err := parseCrash(os.Getenv("ADAPT_NET_CRASH"), n)
	if err != nil {
		fmt.Fprintf(os.Stderr, "adaptrun[worker %d]: %v\n", rank, err)
		return 1
	}

	opts := []nettransport.Option{
		// A worker that hits its crash point dies like a real process: no
		// handshakes, no deferred cleanup, just exit.
		nettransport.WithCrashExit(func() { os.Exit(3) }),
	}
	var tb *trace.Buffer
	if dir := os.Getenv("ADAPT_NET_TRACE"); dir != "" {
		tb = &trace.Buffer{}
		opts = append(opts, nettransport.WithTrace(tb))
		defer writeWorkerTrace(dir, rank, tb)
	}
	if crashPlan != nil {
		opts = append(opts, nettransport.WithCrashesArmed())
		if crashPlan.Rank == rank {
			opts = append(opts, nettransport.WithCrashes([]faults.Crash{*crashPlan}))
		}
	}

	c, cc, _, err := nettransport.JoinCluster(os.Getenv("ADAPT_NET_COORD"), rank, n, opts...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "adaptrun[worker %d]: %v\n", rank, err)
		return 1
	}
	defer c.Close()

	topo := hwloc.New(n, 1, 1)
	rep := workerReport{Rank: rank}
	perfBase := perf.Read()
	for i, name := range names {
		opt := runOptions(i)
		cr := collResult{Coll: name}
		if crashPlan != nil {
			cs, ok := findCrashCase(n, size, name)
			if !ok {
				fmt.Fprintf(os.Stderr, "adaptrun[worker %d]: no FT case %q\n", rank, name)
				return 1
			}
			res := cs.Run(c, cs.In(rank), opt)
			if res.Err != nil {
				cr.Err = res.Err.Error()
				var rf *faults.RankFailedError
				cr.RankFailed = errors.As(res.Err, &rf)
			} else {
				cr.Survivors = res.Survivors
				if res.Msg.Data != nil {
					cr.Data = append([]byte(nil), res.Msg.Data...)
				}
			}
		} else {
			cs, ok := findCase(topo, size, name)
			if !ok {
				fmt.Fprintf(os.Stderr, "adaptrun[worker %d]: unknown case %q\n", rank, name)
				return 1
			}
			res := cs.Run(c, cs.In(rank), opt)
			if res.Data != nil {
				cr.Data = append([]byte(nil), res.Data...)
			}
		}
		rep.Results = append(rep.Results, cr)
	}
	snap := perf.Read()
	rep.FramesOut = snap.NetFramesOut - perfBase.NetFramesOut
	rep.BytesOut = snap.NetBytesOut - perfBase.NetBytesOut
	rep.FramesIn = snap.NetFramesIn - perfBase.NetFramesIn
	rep.BytesIn = snap.NetBytesIn - perfBase.NetBytesIn
	rep.Trouble = snap.NetTrouble() - perfBase.NetTrouble()

	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(rep); err != nil {
		fmt.Fprintf(os.Stderr, "adaptrun[worker %d]: encode report: %v\n", rank, err)
		return 1
	}
	if err := cc.Report(buf.Bytes()); err != nil {
		fmt.Fprintf(os.Stderr, "adaptrun[worker %d]: report: %v\n", rank, err)
		return 1
	}
	cc.Close()
	return 0
}

// writeWorkerTrace exports the worker's causal spans (wall-clock offsets
// from endpoint creation) as Perfetto-loadable Chrome JSON.
func writeWorkerTrace(dir string, rank int, tb *trace.Buffer) {
	path := filepath.Join(dir, fmt.Sprintf("rank%d.json", rank))
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "adaptrun[worker %d]: trace: %v\n", rank, err)
		return
	}
	defer f.Close()
	run := tb.Snapshot(fmt.Sprintf("adaptrun-rank%d", rank))
	if err := trace.WriteChrome(f, []trace.Run{run}); err != nil {
		fmt.Fprintf(os.Stderr, "adaptrun[worker %d]: trace: %v\n", rank, err)
	}
}

// ---- shared helpers ----

// runOptions builds the per-collective options; Seq advances per case so
// back-to-back collectives never share tags.
func runOptions(idx int) core.Options {
	opt := core.DefaultOptions()
	opt.Seq = idx + 1
	return opt
}

// resolveColls expands aliases and validates the requested collectives.
func resolveColls(spec string, crash bool) ([]string, error) {
	var names []string
	for _, raw := range strings.Split(spec, ",") {
		name := strings.TrimSpace(raw)
		if name == "" {
			continue
		}
		if crash {
			if ft, ok := ftAliases[name]; ok {
				name = ft
			}
			if !strings.HasPrefix(name, "ft/") {
				return nil, fmt.Errorf("collective %q has no fail-stop variant (crash runs support: bcast, reduce)", name)
			}
		} else if full, ok := collAliases[name]; ok {
			name = full
		}
		names = append(names, name)
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("no collectives requested")
	}
	return names, nil
}

// findCase looks a case name up in the conformance registry.
func findCase(topo *hwloc.Topology, size int, name string) (conform.Case, bool) {
	for _, cs := range conform.Cases(topo, size) {
		if cs.Name == name {
			return cs, true
		}
	}
	return conform.Case{}, false
}

// findCrashCase looks a fail-stop case up in the crash registry.
func findCrashCase(n, size int, name string) (conform.CrashCase, bool) {
	for _, cs := range conform.CrashCases(n, size) {
		if cs.Name == name {
			return cs, true
		}
	}
	return conform.CrashCase{}, false
}

// parseCrash parses "RANK:AFTERSENDS" ("" = no crash).
func parseCrash(spec string, n int) (*faults.Crash, error) {
	if spec == "" {
		return nil, nil
	}
	parts := strings.SplitN(spec, ":", 2)
	if len(parts) != 2 {
		return nil, fmt.Errorf("crash spec %q: want RANK:AFTERSENDS", spec)
	}
	rank, err1 := strconv.Atoi(parts[0])
	after, err2 := strconv.Atoi(parts[1])
	if err1 != nil || err2 != nil || rank < 0 || rank >= n || after < 0 {
		return nil, fmt.Errorf("crash spec %q: want RANK:AFTERSENDS with 0 <= RANK < %d", spec, n)
	}
	return &faults.Crash{Rank: rank, AfterSends: after}, nil
}

func envInt(key string) int {
	v, err := strconv.Atoi(os.Getenv(key))
	if err != nil {
		fmt.Fprintf(os.Stderr, "adaptrun: bad %s=%q\n", key, os.Getenv(key))
		os.Exit(1)
	}
	return v
}
