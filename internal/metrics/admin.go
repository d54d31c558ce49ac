package metrics

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"

	"adapt/internal/perf"
)

// The admin plane: an opt-in HTTP endpoint a running daemon exposes so
// operators can observe it under load. Four surfaces:
//
//	/metrics  Prometheus text exposition of the registry (golden-tested)
//	/statusz  one JSON document: histogram quantiles, counters, gauges,
//	          per-link FEC health, the perf counter snapshot plus its
//	          per-window delta (perf.Snapshot.Delta between scrapes),
//	          and an application section (adaptd: sessions + backends)
//	/healthz  draining-aware readiness: 200 while serving, 503 once
//	          shutdown/drain begins
//	/debug/pprof/  the standard Go profiling handlers
//
// ServeAdmin also flips the telemetry gate on — an admin endpoint with
// recording disabled would scrape empty histograms.

// AdminOpts configures the admin endpoint.
type AdminOpts struct {
	// Registry to expose; nil means the package default.
	Registry *Registry
	// Status, when non-nil, supplies the application section of
	// /statusz (must be JSON-marshalable).
	Status func() any
	// Healthy, when non-nil, gates /healthz; nil means always ready.
	Healthy func() bool
}

// Statusz is the /statusz JSON document.
type Statusz struct {
	Now        time.Time     `json:"now"`
	UptimeSecs float64       `json:"uptime_secs"`
	WindowSecs float64       `json:"window_secs"`
	Perf       perf.Snapshot `json:"perf"`
	PerfWindow perf.Snapshot `json:"perf_window"` // delta since the previous /statusz scrape

	Histograms []QuantileSummary `json:"histograms,omitempty"`
	Counters   []CounterValue    `json:"counters,omitempty"`
	Gauges     []GaugeValue      `json:"gauges,omitempty"`
	Links      []LinkStat        `json:"links,omitempty"`
	App        any               `json:"app,omitempty"`
}

// CounterValue is one counter's statusz sample.
type CounterValue struct {
	Name   string `json:"name"`
	Labels string `json:"labels,omitempty"`
	Value  uint64 `json:"value"`
}

// GaugeValue is one gauge's statusz sample.
type GaugeValue struct {
	Name   string `json:"name"`
	Labels string `json:"labels,omitempty"`
	Value  int64  `json:"value"`
}

// CounterValues returns every registered counter in stable order.
func (r *Registry) CounterValues() []CounterValue {
	var out []CounterValue
	for _, m := range r.sorted() {
		if c, ok := m.(*Counter); ok {
			out = append(out, CounterValue{Name: c.m.name, Labels: labelString(c.m.labels), Value: c.Value()})
		}
	}
	return out
}

// GaugeValues returns every registered gauge in stable order.
func (r *Registry) GaugeValues() []GaugeValue {
	var out []GaugeValue
	for _, m := range r.sorted() {
		if g, ok := m.(*Gauge); ok {
			out = append(out, GaugeValue{Name: g.m.name, Labels: labelString(g.m.labels), Value: g.Value()})
		}
	}
	return out
}

// Admin is a running admin endpoint.
type Admin struct {
	ln    net.Listener
	srv   *http.Server
	opts  AdminOpts
	reg   *Registry
	start time.Time

	mu       sync.Mutex
	lastPerf perf.Snapshot
	lastAt   time.Time
}

// ServeAdmin starts the admin endpoint on addr (e.g. "127.0.0.1:0")
// and enables the telemetry plane.
func ServeAdmin(addr string, opts AdminOpts) (*Admin, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("metrics: admin listen %s: %w", addr, err)
	}
	reg := opts.Registry
	if reg == nil {
		reg = Default()
	}
	a := &Admin{ln: ln, opts: opts, reg: reg, start: time.Now()}
	a.lastPerf = perf.Read()
	a.lastAt = a.start

	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", a.handleMetrics)
	mux.HandleFunc("/statusz", a.handleStatusz)
	mux.HandleFunc("/healthz", a.handleHealthz)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	a.srv = &http.Server{Handler: mux}
	Enable(true)
	go a.srv.Serve(ln)
	return a, nil
}

// Addr returns the bound admin address.
func (a *Admin) Addr() string { return a.ln.Addr().String() }

// Close stops the endpoint (the telemetry gate stays on; recording is
// cheap and a restart should not lose history).
func (a *Admin) Close() error { return a.srv.Close() }

func (a *Admin) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	a.reg.WritePrometheus(w)
}

// Status assembles the /statusz document. The perf window is the delta
// since the previous Status call — one rolling window per endpoint,
// which matches the single-scraper deployments (adapt ctl -watch, the
// bench gate) this plane serves.
func (a *Admin) Status() Statusz {
	now := time.Now()
	cur := perf.Read()
	a.mu.Lock()
	prev, prevAt := a.lastPerf, a.lastAt
	a.lastPerf, a.lastAt = cur, now
	a.mu.Unlock()

	return Statusz{
		Now:        now,
		UptimeSecs: now.Sub(a.start).Seconds(),
		WindowSecs: now.Sub(prevAt).Seconds(),
		Perf:       cur,
		PerfWindow: cur.Delta(prev),
		Histograms: a.reg.Summaries(true),
		Counters:   a.reg.CounterValues(),
		Gauges:     a.reg.GaugeValues(),
		Links:      Links(),
		App:        a.appStatus(),
	}
}

func (a *Admin) appStatus() any {
	if a.opts.Status == nil {
		return nil
	}
	return a.opts.Status()
}

func (a *Admin) handleStatusz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(a.Status())
}

func (a *Admin) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if a.opts.Healthy != nil && !a.opts.Healthy() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}
