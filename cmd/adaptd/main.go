// Command adaptd is the collective-as-a-service daemon: a persistent
// server that executes collective requests from many concurrent client
// sessions on cached backend worlds (internal/serve).
//
// Usage:
//
//	adaptd                          # listen on 127.0.0.1:0 (port printed)
//	adaptd -listen 127.0.0.1:7077   # fixed address
//	adaptd -backend net -fuse 200us # TCP-loopback worlds, 200µs fuse window
//	adaptd -chaos 'seed=11; all: drop=0.05' -perf
//	adaptd -crash 2:0 -crash-group churn -backend net
//	adaptd -admin 127.0.0.1:7078     # live telemetry plane (see adapt ctl)
//
// The daemon prints exactly one "adaptd: listening on ADDR" line once
// it accepts connections (scripts parse it), then serves until SIGINT
// or SIGTERM, drains live sessions, and prints a final counters summary
// whose "trouble N" field is the clean-run gate: overload rejections,
// rank failures, and rank deaths all zero on a healthy run.
//
// -admin enables the telemetry plane and exposes /metrics (Prometheus
// text), /statusz (JSON: sessions, backends with generations, request
// quantiles, per-link FEC health, perf counters with per-window
// deltas), /healthz (503 once draining), and /debug/pprof. One
// "adaptd: admin on ADDR" line is printed for scripts.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"adapt/internal/faults"
	"adapt/internal/metrics"
	"adapt/internal/perf"
	"adapt/internal/serve"
)

func main() {
	os.Exit(run())
}

type crashFlags []faults.Crash

func (c *crashFlags) String() string {
	parts := make([]string, len(*c))
	for i, cr := range *c {
		parts[i] = fmt.Sprintf("%d:%d", cr.Rank, cr.AfterSends)
	}
	return strings.Join(parts, ",")
}

func (c *crashFlags) Set(v string) error {
	rank, after, ok := strings.Cut(v, ":")
	r, err := strconv.Atoi(rank)
	if err != nil || r < 0 {
		return fmt.Errorf("bad -crash rank %q (want R or R:K)", v)
	}
	k := 0
	if ok {
		if k, err = strconv.Atoi(after); err != nil || k < 0 {
			return fmt.Errorf("bad -crash after-sends %q (want R or R:K)", v)
		}
	}
	*c = append(*c, faults.Crash{Rank: r, AfterSends: k})
	return nil
}

func run() int {
	listen := flag.String("listen", "127.0.0.1:0", "TCP listen address")
	backend := flag.String("backend", "runtime", "backend substrate: runtime or net")
	fuse := flag.Duration("fuse", 0, "fuse window for same-shape allreduces (0 disables fusing)")
	fuseMax := flag.Int("fuse-max", 16, "max requests per fused batch")
	queue := flag.Int("queue", 64, "per-backend admission queue depth")
	sessionPending := flag.Int("session-pending", 32, "per-session in-flight request cap")
	maxConcurrent := flag.Int("max-concurrent", 8, "concurrently scheduled collectives per backend rank")
	maxSessions := flag.Int("max-sessions", 4096, "concurrent session cap")
	maxWorld := flag.Int("max-world", 64, "largest backend world a session may request")
	drain := flag.Duration("drain", 10*time.Second, "shutdown drain timeout")
	chaos := flag.String("chaos", "", "fault plan for runtime backends (e.g. 'seed=11; all: drop=0.05')")
	crashGroup := flag.String("crash-group", "", "group whose net backends arm the -crash rules")
	perfStats := flag.Bool("perf", false, "print full perf counters to stderr at shutdown")
	adminAddr := flag.String("admin", "", "admin/telemetry HTTP address (empty disables the plane)")
	var crashes crashFlags
	flag.Var(&crashes, "crash", "fail-stop crash rule R:K for -crash-group worlds (repeatable)")
	flag.Parse()

	cfg := serve.Config{
		Addr:           *listen,
		Backend:        *backend,
		FuseWindow:     *fuse,
		FuseMaxReqs:    *fuseMax,
		QueueDepth:     *queue,
		SessionPending: *sessionPending,
		MaxConcurrent:  *maxConcurrent,
		MaxSessions:    *maxSessions,
		MaxWorld:       *maxWorld,
		DrainTimeout:   *drain,
		Crashes:        crashes,
		CrashGroup:     *crashGroup,
	}
	if *chaos != "" {
		plan, err := faults.ParsePlan(*chaos)
		if err != nil {
			fmt.Fprintf(os.Stderr, "adaptd: %v\n", err)
			return 2
		}
		cfg.Chaos = &plan
		cfg.Recovery = faults.DefaultRecovery()
	}

	srv, err := serve.New(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "adaptd: %v\n", err)
		return 1
	}
	fmt.Printf("adaptd: listening on %s\n", srv.Addr())
	if *adminAddr != "" {
		admin, err := metrics.ServeAdmin(*adminAddr, metrics.AdminOpts{
			Status:  func() any { return srv.StatusReport() },
			Healthy: func() bool { return !srv.Draining() },
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "adaptd: %v\n", err)
			srv.Close()
			return 1
		}
		// Left open through drain on purpose: /healthz turning 503 and the
		// drain histograms filling are exactly what a watcher wants to see.
		defer admin.Close()
		fmt.Printf("adaptd: admin on %s\n", admin.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	fmt.Println("adaptd: draining")
	if err := srv.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "adaptd: close: %v\n", err)
		return 1
	}

	st := srv.Stats()
	snap := perf.Read()
	fmt.Printf("adaptd: served %d sessions (%d drained), %d requests, %d responses, %d proxy ops, %d backends; trouble %d (%d overloads, %d rank fails, %d rank deaths, %d net)\n",
		st.Sessions, st.SessionsClosed, st.Requests, st.Responses, st.ProxyOps, st.Backends,
		snap.ServeTrouble()+snap.NetTrouble(),
		snap.ServeOverloads, snap.ServeRankFails, snap.ServeRankDeaths, snap.NetTrouble())
	if *perfStats {
		snap.Fprint(os.Stderr)
	}
	return 0
}
