package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"adapt/internal/metrics"
	"adapt/internal/serve"
)

// serve-runtime-allreduce: an in-process adaptd (serve.New with every
// setting at its default: the "runtime" backend of 4 in-process ranks, no
// fusing) driven by a closed loop of 2 sessions, as many as the host has
// cores, with 4 requests in flight each. Requests are a seeded 3:1 mix of
// eager-sized and rendezvous-sized allreduces.
const (
	serveBackend   = "runtime"
	serveWorld     = 4
	serveSessions  = 2
	serveInFlight  = 4
	smallElems     = 16   // 128 B per rank: eager protocol
	largeElems     = 8192 // 64 KiB per rank: rendezvous protocol
	serveVariants  = 16   // distinct inputs per size, generated before timing
	serveWarmup    = 16   // checked requests per client before timing
	serveSetups    = 7    // set-ups per run; the last serves the timed phase
	serveRounds    = 10   // timed rounds, GC between them
	requestLatency = "adapt_serve_request_latency_ns"

	// A request unanswered this long after its round ended has failed;
	// responses normally take milliseconds.
	requestTimeout  = 2 * time.Second
	warmupTimeout   = 5 * time.Second
	teardownTimeout = 3 * time.Second
)

// serveInput is one allreduce request and its exact expected result.
// Contributions are integers far below 2^53, so every reduction order
// gives the same bits.
type serveInput struct {
	vals, want []float64
}

func makeInputs(rng *rand.Rand, elems int) []serveInput {
	in := make([]serveInput, serveVariants)
	for i := range in {
		vals := make([]float64, serveWorld*elems)
		want := make([]float64, elems)
		for r := 0; r < serveWorld; r++ {
			for e := 0; e < elems; e++ {
				v := float64(rng.Intn(1<<20) - 1<<19)
				vals[r*elems+e] = v
				want[e] += v
			}
		}
		in[i] = serveInput{vals, want}
	}
	return in
}

// client is one closed-loop caller: it sends its next request only after
// the previous one's checked response. Its goroutine records under mu, so
// a client abandoned on a hung request can still be tallied.
type client struct {
	sess *serve.Session
	rng  *rand.Rand

	mu         sync.Mutex
	lat        []float64 // µs, request to checked response
	submit     []float64 // µs in StartAllreduce (traced rounds)
	ok, failed int
	abandoned  bool // stuck on a request past its round: counted failed, never reused
}

// serveBench is one run of the workload.
type serveBench struct {
	small, large []serveInput
	srv          *serve.Server
	sessions     []*serve.Session
	clients      []*client
	dials        []time.Duration
	rep          *report
	ops          int // operation counter for span identifiers
}

// call performs one checked request.
func (b *serveBench) call(c *client, tr *tracer, op int) {
	root := tr.begin("bench", "request", -1, op)
	defer tr.end(root)
	in := b.small
	if c.rng.Intn(4) == 0 {
		in = b.large
	}
	x := in[c.rng.Intn(len(in))]
	t0 := time.Now()
	sp := tr.begin("serve", "StartAllreduce", root, op)
	call, err := c.sess.StartAllreduce(x.vals)
	tr.end(sp)
	submit := time.Since(t0)
	var out []float64
	if err == nil {
		sp = tr.begin("serve", "Call.Wait", root, op)
		out, _, err = call.Wait()
		tr.end(sp)
	}
	if err == nil && len(out) != len(x.want) {
		err = fmt.Errorf("result has %d elements, want %d", len(out), len(x.want))
	}
	for e := 0; err == nil && e < len(out); e++ {
		if out[e] != x.want[e] {
			err = fmt.Errorf("element %d = %v, want %v", e, out[e], x.want[e])
		}
	}
	lat := time.Since(t0)

	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case c.abandoned:
	case err != nil:
		c.failed++
		fmt.Fprintf(os.Stderr, "perfbench: FAILED: request: %v\n", err)
	default:
		c.ok++
		c.lat = append(c.lat, float64(lat)/float64(time.Microsecond))
		if tr != nil {
			c.submit = append(c.submit, float64(submit)/float64(time.Microsecond))
		}
	}
}

// round runs every client's loop until deadline, or for n requests each
// when n > 0, and returns the wall time until the last response. A client
// still waiting for a response requestTimeout after the round should have
// ended is abandoned: its request counts as failed and its goroutine is
// left blocked in Call.Wait until the process exits, since a Call cannot
// be cancelled.
func (b *serveBench) round(tr *tracer, deadline time.Time, n int) time.Duration {
	start := time.Now()
	limit := deadline.Add(requestTimeout)
	if n > 0 {
		limit = start.Add(warmupTimeout)
	}
	done := make(chan *client, len(b.clients)) // never blocks a sender, abandoned or not
	for _, c := range b.clients {
		base := b.ops
		b.ops += 1 << 24
		go func(c *client, base int) {
			for i := 0; n > 0 && i < n || n == 0 && time.Now().Before(deadline); i++ {
				b.call(c, tr, base+i)
			}
			done <- c
		}(c, base)
	}
	timer := time.NewTimer(time.Until(limit))
	defer timer.Stop()
	finished := map[*client]bool{}
wait:
	for len(finished) < len(b.clients) {
		select {
		case c := <-done:
			finished[c] = true
		case <-timer.C:
			break wait
		}
	}
	for _, c := range b.clients {
		if !finished[c] {
			c.mu.Lock()
			c.abandoned = true
			c.mu.Unlock()
			b.rep.attempted++
			b.rep.fail("request unanswered %v after its round ended", requestTimeout)
		}
	}
	return time.Since(start)
}

// setup starts a server, dials the sessions (the first Hello builds the
// backend world), and runs the warm-up requests.
func (b *serveBench) setup(seed int64) error {
	srv, err := serve.New(serve.Config{Backend: serveBackend})
	if err != nil {
		return err
	}
	b.srv, b.sessions, b.clients = srv, nil, nil
	for s := 0; s < serveSessions; s++ {
		t := time.Now()
		sess, err := serve.Dial(srv.Addr(), serve.SessionOpts{World: serveWorld, Group: "bench", ProxyRank: -1})
		if err != nil {
			return fmt.Errorf("dial: %w", err)
		}
		b.dials = append(b.dials, time.Since(t))
		b.sessions = append(b.sessions, sess)
		for w := 0; w < serveInFlight; w++ {
			stream := uint64(streamServe<<16 | s<<8 | w)
			b.clients = append(b.clients, &client{sess: sess, rng: rand.New(rand.NewSource(splitmix(seed, stream)))})
		}
	}
	b.round(nil, time.Time{}, serveWarmup)
	return nil
}

// teardown closes the sessions, then the server. A close that outlasts
// teardownTimeout (a session draining a request the server never
// answers) is reported and left running until the process exits.
func (b *serveBench) teardown() {
	sessions, srv := b.sessions, b.srv
	errc := make(chan error, 1)
	go func() {
		var first error
		for _, s := range sessions {
			if err := s.Close(); err != nil && first == nil {
				first = err
			}
		}
		if err := srv.Close(); err != nil && first == nil {
			first = err
		}
		errc <- first
	}()
	select {
	case err := <-errc:
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: teardown:", err)
		}
	case <-time.After(teardownTimeout):
		fmt.Fprintf(os.Stderr, "perfbench: teardown still running after %v\n", teardownTimeout)
	}
}

// tally moves the clients' counts into the report, drops abandoned
// clients, and returns the latencies and submit times of the round.
func (b *serveBench) tally() (lat, submit []float64, ok int) {
	live := b.clients[:0]
	for _, c := range b.clients {
		c.mu.Lock()
		lat, submit = append(lat, c.lat...), append(submit, c.submit...)
		ok += c.ok
		b.rep.attempted += c.ok + c.failed
		b.rep.failed += c.failed
		c.lat, c.submit, c.ok, c.failed = c.lat[:0], c.submit[:0], 0, 0
		if !c.abandoned {
			live = append(live, c)
		}
		c.mu.Unlock()
	}
	b.clients = live
	return lat, submit, ok
}

func runServe(cfg config, tr *tracer) (*report, error) {
	rng := rand.New(rand.NewSource(splitmix(cfg.seed, streamServe)))
	b := &serveBench{small: makeInputs(rng, smallElems), large: makeInputs(rng, largeElems), rep: newReport()}
	rep := b.rep

	var setups []float64
	for i := 0; i < serveSetups; i++ {
		runtime.GC()
		t := time.Now()
		if err := b.setup(cfg.seed); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
		fmt.Fprintf(os.Stderr, "perfbench: set-up %d: %.1f ms\n", i+1, 1e3*setups[i])
		b.tally()
		if i < serveSetups-1 {
			b.teardown()
		}
	}
	defer b.teardown()

	overloads0 := b.srv.Stats().Overloads
	sched0 := schedCounters()
	pr, err := startProbe()
	if err != nil {
		return nil, err
	}
	// Each round yields its own rate, p50 and p99; the run reports the
	// median round, so one round hit by a host stall does not set the run.
	type roundStat struct{ rate, p50, p99 float64 }
	var (
		all, plain, traced []roundStat
		submits            []float64
		ops, opsTraced     int
	)
	rounds := min(serveRounds, int(cfg.seconds/time.Second))
	for i := 0; i < rounds; i++ {
		if i > 0 {
			runtime.GC()
		}
		var t *tracer
		if tr != nil && i%2 == 0 {
			t = tr
		}
		metrics.Enable(t != nil)
		wall := b.round(t, time.Now().Add(cfg.seconds/time.Duration(rounds)), 0)
		metrics.Enable(false)
		lat, sub, ok := b.tally()
		ops += ok
		if t != nil {
			submits, opsTraced = append(submits, sub...), opsTraced+ok
		}
		sort.Float64s(lat)
		q50, err50 := percentile(lat, 0.50)
		q99, err99 := percentile(lat, 0.99)
		if err50 != nil || err99 != nil {
			fmt.Fprintf(os.Stderr, "perfbench: round %d left out of the latency medians: %v\n", i, errors.Join(err50, err99))
			continue
		}
		fmt.Fprintf(os.Stderr, "perfbench: round %d: p50 %.0fus p99 %.0fus over %d responses\n", i, q50.Value, q99.Value, q99.N)
		st := roundStat{float64(ok) / wall.Seconds(), q50.Value, q99.Value}
		all = append(all, st)
		if t != nil {
			traced = append(traced, st)
		} else {
			plain = append(plain, st)
		}
	}
	if err := pr.finish(rep, ops); err != nil {
		return nil, err
	}
	if len(all) == 0 {
		return nil, errors.New("no round had enough responses for a p99")
	}
	med := func(rs []roundStat, f func(roundStat) float64) float64 {
		xs := make([]float64, len(rs))
		for i, r := range rs {
			xs[i] = f(r)
		}
		m, _ := median(xs)
		return m
	}
	rate := func(r roundStat) float64 { return r.rate }
	p50 := func(r roundStat) float64 { return r.p50 }
	rep.e2e["ops_per_s"] = med(all, rate)
	rep.e2e["p50_us"] = med(all, p50)
	rep.e2e["p99_us"] = med(all, func(r roundStat) float64 { return r.p99 })
	rep.e2e["setup_s"], _ = median(setups)

	rep.layer["serve.dial_ms"], _ = median(durations(b.dials, time.Millisecond))
	rep.layer["serve.overloads"] = float64(b.srv.Stats().Overloads - overloads0)
	if tr == nil {
		return rep, nil
	}
	rep.layer["serve.submit_us"], _ = median(submits)
	for _, s := range metrics.Default().Summaries(true) {
		if s.Name == requestLatency && strings.Contains(s.Labels, "allreduce") {
			rep.layer["serve.server_p50_us"] = float64(s.P50) / 1e3
			rep.layer["serve.server_p99_us"] = float64(s.P99) / 1e3
		}
	}
	if opsTraced > 0 {
		sched := schedCounters()
		for _, k := range []string{"ticks", "stalls", "parks"} {
			rep.layer["progress."+k+"_per_op"] = float64(sched[k]-sched0[k]) / float64(opsTraced)
		}
	}
	if len(traced) > 0 && len(plain) > 0 {
		rep.layer["trace.ops_per_s_delta"] = med(traced, rate) - med(plain, rate)
		rep.layer["trace.p50_us_delta"] = med(traced, p50) - med(plain, p50)
	}
	return rep, nil
}

// schedCounters reads progress.Scheduler's counters, which record only
// while metrics are enabled.
func schedCounters() map[string]uint64 {
	out := map[string]uint64{}
	for _, c := range metrics.Default().CounterValues() {
		if k, ok := strings.CutPrefix(c.Name, "adapt_progress_sched_"); ok {
			out[strings.TrimSuffix(k, "_total")] += c.Value
		}
	}
	return out
}
