package main

// adapt ctl is the terminal client for a running adaptd's admin plane
// (adaptd -admin ADDR): it renders the daemon's live status (sessions,
// backends with generations, request-latency quantiles, per-link FEC
// health, perf counter windows) from one /statusz scrape, or
// continuously.
//
//	adapt ctl -addr 127.0.0.1:7078             # one-shot status
//	adapt ctl -addr 127.0.0.1:7078 -watch 1s   # live view, redrawn per interval
//	adapt ctl -addr 127.0.0.1:7078 -check      # observability gate
//
// -check scrapes the plane of a loaded daemon until it passes or
// -timeout runs out, and fails unless the Prometheus exposition parses,
// the serving-layer latency histogram is non-empty, /healthz reports
// ready, and the trouble counters (overloads, rank failures, net
// faults) are zero. TestCheckObsGate holds it to a daemon under load.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"sort"
	"strings"
	"time"

	"adapt/internal/metrics"
	"adapt/internal/serve"
)

func runCtl(args []string, stdout, stderr io.Writer) int {
	fs := newFlags("ctl", stderr)
	addr := fs.String("addr", "", "adaptd admin address (host:port), required")
	watch := fs.Duration("watch", 0, "redraw the status view at this interval (0 = one shot)")
	check := fs.Bool("check", false, "run the observability gate against a loaded daemon")
	timeout := fs.Duration("timeout", 10*time.Second, "deadline for one scrape, or for the whole -check")
	if fs.Parse(args) != nil {
		return 2
	}
	if *addr == "" {
		fmt.Fprintln(stderr, "adapt ctl: -addr is required (the daemon's -admin address)")
		return 2
	}

	if *check {
		res, err := runCheck(*addr, *timeout)
		if err != nil {
			return failed(stderr, "ctl", err)
		}
		fmt.Fprintf(stdout, "adapt ctl: check ok (%d exposition samples, %d requests observed, trouble 0)\n",
			res.samples, res.requests)
		return 0
	}
	for {
		st, healthy, err := scrape(*addr, time.Now().Add(*timeout))
		if err != nil {
			return failed(stderr, "ctl", err)
		}
		if *watch <= 0 {
			render(stdout, *addr, st, healthy)
			return 0
		}
		// Home the cursor and clear below: a flicker-free redraw.
		fmt.Fprint(stdout, "\x1b[H\x1b[J")
		render(stdout, *addr, st, healthy)
		time.Sleep(*watch)
	}
}

// get fetches one admin path. The request, body read included, must
// finish by deadline: a plane that accepts and never answers fails it.
func get(addr, path string, deadline time.Time) ([]byte, error) {
	left := time.Until(deadline)
	if left <= 0 {
		return nil, fmt.Errorf("GET %s: deadline passed", path)
	}
	client := http.Client{Timeout: left}
	resp, err := client.Get("http://" + addr + path)
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
func scrape(addr string, deadline time.Time) (metrics.Statusz, bool, error) {
	var st metrics.Statusz
	body, err := get(addr, "/statusz", deadline)
	if err != nil {
		return st, false, err
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return st, false, fmt.Errorf("bad /statusz JSON: %v", err)
	}
	_, herr := get(addr, "/healthz", deadline)
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

// checkResult is what one -check attempt saw.
type checkResult struct {
	samples  int    // well-formed exposition samples
	requests uint64 // requests the daemon reports served
	failures []string
}

// checkRetry is the pause between -check attempts.
const checkRetry = 200 * time.Millisecond

// runCheck retries until the plane shows a loaded, healthy daemon or
// the deadline passes; every request is bounded by that deadline.
func runCheck(addr string, timeout time.Duration) (checkResult, error) {
	deadline := time.Now().Add(timeout)
	for attempts := 1; ; attempts++ {
		res := tryCheck(addr, deadline)
		if len(res.failures) == 0 {
			return res, nil
		}
		if time.Until(deadline) < checkRetry {
			return res, fmt.Errorf("check FAILED after %d attempts: %s",
				attempts, strings.Join(res.failures, "; "))
		}
		time.Sleep(checkRetry)
	}
}

func tryCheck(addr string, deadline time.Time) checkResult {
	var res checkResult
	fail := func(format string, args ...any) {
		res.failures = append(res.failures, fmt.Sprintf(format, args...))
	}

	promBody, err := get(addr, "/metrics", deadline)
	if err != nil {
		fail("/metrics: %v", err)
		return res
	}
	res.samples, err = parseExposition(string(promBody))
	if err != nil {
		fail("%v", err)
	} else if res.samples == 0 {
		fail("exposition has no samples")
	}

	st, healthy, err := scrape(addr, deadline)
	if err != nil {
		fail("%v", err)
		return res
	}
	if !healthy {
		fail("/healthz not ready")
	}

	loaded := false
	for _, h := range st.Histograms {
		if h.Name == "adapt_serve_request_latency_ns" && h.Count > 0 && h.P50 > 0 && h.P999 >= h.P50 {
			loaded = true
		}
	}
	if !loaded {
		fail("request latency quantiles empty (no load observed)")
	}

	if trouble := st.Perf.ServeTrouble() + st.Perf.NetTrouble(); trouble != 0 {
		fail("trouble counters nonzero (%d)", trouble)
	}

	if rep := appReport(st); rep != nil {
		res.requests = rep.Requests
		if rep.Requests == 0 {
			fail("daemon reports zero requests")
		}
	} else {
		fail("/statusz app section missing or not a StatusReport")
	}
	return res
}
