// Command adaptctl is the terminal client for a running adaptd's admin
// plane (adaptd -admin ADDR): it renders the daemon's live status —
// sessions, backends with generations, request-latency quantiles,
// per-link FEC health, perf counter windows — from one /statusz scrape,
// or continuously.
//
// Usage:
//
//	adaptctl -addr 127.0.0.1:7078             # one-shot status
//	adaptctl -addr 127.0.0.1:7078 -watch 1s   # live view, redrawn per interval
//	adaptctl -addr 127.0.0.1:7078 -metrics    # raw Prometheus exposition
//	adaptctl -addr 127.0.0.1:7078 -check -out BENCH_obs.json
//
// -check is the observability bench gate (make bench): it scrapes the
// plane under load and fails unless the Prometheus exposition parses,
// the serving-layer latency histogram is non-empty, /healthz reports
// ready, and the trouble counters (overloads, rank failures, net
// faults) are zero. The scrape evidence lands in -out as JSON.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"regexp"
	"sort"
	"strings"
	"time"

	"adapt/internal/metrics"
	"adapt/internal/serve"
)

func main() {
	os.Exit(run())
}

func run() int {
	addr := flag.String("addr", "", "adaptd admin address (host:port), required")
	watch := flag.Duration("watch", 0, "redraw the status view at this interval (0 = one shot)")
	rawMetrics := flag.Bool("metrics", false, "dump the raw Prometheus exposition and exit")
	check := flag.Bool("check", false, "run the observability gate against a loaded daemon")
	out := flag.String("out", "", "write -check evidence JSON here")
	timeout := flag.Duration("timeout", 10*time.Second, "-check retry deadline")
	flag.Parse()
	if *addr == "" {
		fmt.Fprintln(os.Stderr, "adaptctl: -addr is required (the daemon's -admin address)")
		return 2
	}

	switch {
	case *rawMetrics:
		body, err := get(*addr, "/metrics")
		if err != nil {
			fmt.Fprintf(os.Stderr, "adaptctl: %v\n", err)
			return 1
		}
		os.Stdout.Write(body)
		return 0
	case *check:
		return runCheck(*addr, *out, *timeout)
	case *watch > 0:
		for {
			st, healthy, err := scrape(*addr)
			if err != nil {
				fmt.Fprintf(os.Stderr, "adaptctl: %v\n", err)
				return 1
			}
			// Home the cursor and clear below: a flicker-free redraw.
			fmt.Print("\x1b[H\x1b[J")
			render(os.Stdout, *addr, st, healthy)
			time.Sleep(*watch)
		}
	default:
		st, healthy, err := scrape(*addr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "adaptctl: %v\n", err)
			return 1
		}
		render(os.Stdout, *addr, st, healthy)
		return 0
	}
}

func get(addr, path string) ([]byte, error) {
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return body, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return body, nil
}

// scrape pulls one /statusz document plus the health bit.
func scrape(addr string) (metrics.Statusz, bool, error) {
	var st metrics.Statusz
	body, err := get(addr, "/statusz")
	if err != nil {
		return st, false, err
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return st, false, fmt.Errorf("bad /statusz JSON: %v", err)
	}
	_, herr := get(addr, "/healthz")
	return st, herr == nil, nil
}

// appReport re-decodes the /statusz app section as the daemon's
// StatusReport (nil when the section is absent or a different shape).
func appReport(st metrics.Statusz) *serve.StatusReport {
	if st.App == nil {
		return nil
	}
	raw, err := json.Marshal(st.App)
	if err != nil {
		return nil
	}
	var rep serve.StatusReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil
	}
	return &rep
}

// ns renders a nanosecond quantity as a rounded duration.
func ns(v uint64) string {
	return time.Duration(v).Round(time.Microsecond).String()
}

func render(w io.Writer, addr string, st metrics.Statusz, healthy bool) {
	health := "healthy"
	if !healthy {
		health = "DRAINING"
	}
	fmt.Fprintf(w, "adaptd @ %s   up %.1fs   window %.1fs   %s\n",
		addr, st.UptimeSecs, st.WindowSecs, health)

	if rep := appReport(st); rep != nil {
		fmt.Fprintf(w, "sessions %d live / %d total   requests %d   responses %d   proxy ops %d\n",
			rep.Sessions, rep.SessionsTotal, rep.Requests, rep.Responses, rep.ProxyOps)
		if len(rep.Backends) > 0 {
			fmt.Fprintln(w, "backends:")
			for _, b := range rep.Backends {
				extra := ""
				if b.Evicted {
					extra += "  EVICTED"
				}
				if len(b.DeadRanks) > 0 {
					extra += fmt.Sprintf("  dead=%v", b.DeadRanks)
				}
				fmt.Fprintf(w, "  %-40s gen=%d world=%d refs=%d tokens=%d/%d%s\n",
					b.Key, b.Gen, b.World, b.Refs, b.TokensInUse, b.TokenPool, extra)
			}
		}
		if len(rep.SessionList) > 0 {
			fmt.Fprintln(w, "sessions:")
			for _, s := range rep.SessionList {
				role := "service"
				if s.ProxyRank >= 0 {
					role = fmt.Sprintf("proxy r%d", s.ProxyRank)
				}
				fmt.Fprintf(w, "  #%-6d %-10s pending=%-4d %s\n", s.ID, role, s.Pending, s.Backend)
			}
		}
	}

	if len(st.Histograms) > 0 {
		fmt.Fprintln(w, "latency / size quantiles:")
		for _, h := range st.Histograms {
			id := h.Name
			if h.Labels != "" {
				id += "{" + h.Labels + "}"
			}
			if strings.HasSuffix(h.Name, "_ns") {
				fmt.Fprintf(w, "  %-56s n=%-8d p50=%-10s p90=%-10s p99=%-10s p999=%s\n",
					id, h.Count, ns(h.P50), ns(h.P90), ns(h.P99), ns(h.P999))
			} else {
				fmt.Fprintf(w, "  %-56s n=%-8d p50=%-10d p90=%-10d p99=%-10d p999=%d\n",
					id, h.Count, h.P50, h.P90, h.P99, h.P999)
			}
		}
	}

	var nz []string
	for _, c := range st.Counters {
		if c.Value == 0 {
			continue
		}
		id := c.Name
		if c.Labels != "" {
			id += "{" + c.Labels + "}"
		}
		nz = append(nz, fmt.Sprintf("%s=%d", id, c.Value))
	}
	for _, g := range st.Gauges {
		id := g.Name
		if g.Labels != "" {
			id += "{" + g.Labels + "}"
		}
		nz = append(nz, fmt.Sprintf("%s=%d", id, g.Value))
	}
	if len(nz) > 0 {
		sort.Strings(nz)
		fmt.Fprintf(w, "counters/gauges: %s\n", strings.Join(nz, "  "))
	}

	if len(st.Links) > 0 {
		fmt.Fprintln(w, "links (FEC health):")
		for _, l := range st.Links {
			fmt.Fprintf(w, "  %d->%d  loss=%.4f  m=%d\n", l.Src, l.Dst, l.Loss, l.M)
		}
	}

	p := st.PerfWindow
	fmt.Fprintf(w, "perf window: serve reqs %d (fused %d in %d batches, overloads %d)  net %d/%d frames out/in  fec enc %d rebuilt %d lost %d  trouble %d\n",
		p.ServeRequests, p.ServeFusedReqs, p.ServeFusedBatch, p.ServeOverloads,
		p.NetFramesOut, p.NetFramesIn,
		p.FecEncoded, p.FecReconstructed, p.FecGroupLost,
		st.Perf.ServeTrouble()+st.Perf.NetTrouble())
}

// sampleLine is one well-formed exposition sample (the shape
// WritePrometheus emits and the golden test pins).
var sampleLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? -?[0-9]+$`)

// parseExposition validates Prometheus text and counts samples.
func parseExposition(text string) (samples int, err error) {
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if line == "" || strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if !sampleLine.MatchString(line) {
			return samples, fmt.Errorf("malformed exposition line: %q", line)
		}
		samples++
	}
	return samples, nil
}

// checkEvidence is the BENCH_obs.json document -check writes.
type checkEvidence struct {
	Addr            string                    `json:"addr"`
	Pass            bool                      `json:"pass"`
	Attempts        int                       `json:"attempts"`
	Samples         int                       `json:"prom_samples"`
	Healthy         bool                      `json:"healthy"`
	Trouble         uint64                    `json:"trouble"`
	UptimeSecs      float64                   `json:"uptime_secs"`
	RequestLatency  []metrics.QuantileSummary `json:"request_latency"`
	Failures        []string                  `json:"failures,omitempty"`
	SessionsTotal   uint64                    `json:"sessions_total"`
	RequestsServed  uint64                    `json:"requests_served"`
	ResponsesServed uint64                    `json:"responses_served"`
}

// runCheck is the bench gate: retry until the plane shows a loaded,
// healthy daemon or the deadline passes, then record the evidence.
func runCheck(addr, outPath string, timeout time.Duration) int {
	deadline := time.Now().Add(timeout)
	var ev checkEvidence
	ev.Addr = addr
	for {
		ev.Attempts++
		ev = tryCheck(addr, ev)
		if ev.Pass || time.Now().After(deadline) {
			break
		}
		time.Sleep(200 * time.Millisecond)
	}
	if outPath != "" {
		raw, _ := json.MarshalIndent(ev, "", "  ")
		raw = append(raw, '\n')
		if err := os.WriteFile(outPath, raw, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "adaptctl: write %s: %v\n", outPath, err)
			return 1
		}
	}
	if !ev.Pass {
		fmt.Fprintf(os.Stderr, "adaptctl: check FAILED after %d attempts: %s\n",
			ev.Attempts, strings.Join(ev.Failures, "; "))
		return 1
	}
	fmt.Printf("adaptctl: check ok (%d exposition samples, %d requests observed, trouble 0)\n",
		ev.Samples, ev.RequestsServed)
	return 0
}

func tryCheck(addr string, ev checkEvidence) checkEvidence {
	ev.Failures = nil
	ev.Pass = false
	ev.RequestLatency = nil

	promBody, err := get(addr, "/metrics")
	if err != nil {
		ev.Failures = append(ev.Failures, fmt.Sprintf("/metrics: %v", err))
		return ev
	}
	ev.Samples, err = parseExposition(string(promBody))
	if err != nil {
		ev.Failures = append(ev.Failures, err.Error())
	} else if ev.Samples == 0 {
		ev.Failures = append(ev.Failures, "exposition has no samples")
	}

	st, healthy, err := scrape(addr)
	if err != nil {
		ev.Failures = append(ev.Failures, err.Error())
		return ev
	}
	ev.Healthy = healthy
	ev.UptimeSecs = st.UptimeSecs
	if !healthy {
		ev.Failures = append(ev.Failures, "/healthz not ready")
	}

	for _, h := range st.Histograms {
		if h.Name == "adapt_serve_request_latency_ns" {
			ev.RequestLatency = append(ev.RequestLatency, h)
		}
	}
	loaded := false
	for _, h := range ev.RequestLatency {
		if h.Count > 0 && h.P50 > 0 && h.P999 >= h.P50 {
			loaded = true
		}
	}
	if !loaded {
		ev.Failures = append(ev.Failures, "request latency quantiles empty (no load observed)")
	}

	ev.Trouble = st.Perf.ServeTrouble() + st.Perf.NetTrouble()
	if ev.Trouble != 0 {
		ev.Failures = append(ev.Failures, fmt.Sprintf("trouble counters nonzero (%d)", ev.Trouble))
	}

	if rep := appReport(st); rep != nil {
		ev.SessionsTotal = rep.SessionsTotal
		ev.RequestsServed = rep.Requests
		ev.ResponsesServed = rep.Responses
		if rep.Requests == 0 {
			ev.Failures = append(ev.Failures, "daemon reports zero requests")
		}
	} else {
		ev.Failures = append(ev.Failures, "/statusz app section missing or not a StatusReport")
	}

	ev.Pass = len(ev.Failures) == 0
	return ev
}
