package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"adapt/internal/metrics"
	"adapt/internal/serve"
)

// startDaemon starts a daemon with its admin plane attached the way
// adaptd -admin does, and returns the serving and admin addresses.
func startDaemon(t *testing.T) (srvAddr, adminAddr string) {
	t.Helper()
	srv, err := serve.New(serve.Config{FuseWindow: 200 * time.Microsecond, DrainTimeout: 5 * time.Second})
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	admin, err := metrics.ServeAdmin("127.0.0.1:0", metrics.AdminOpts{
		Status:  func() any { return srv.StatusReport() },
		Healthy: func() bool { return !srv.Draining() },
	})
	if err != nil {
		t.Fatalf("ServeAdmin: %v", err)
	}
	t.Cleanup(func() { admin.Close() })
	return srv.Addr(), admin.Addr()
}

// drive streams requests allreduces on each of sessions sessions and
// checks every result.
func drive(addr string, sessions, requests int) error {
	const world, elems = 4, 16
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			sess, err := serve.Dial(addr, serve.SessionOpts{World: world, Group: "obs", ProxyRank: -1})
			if err != nil {
				errs <- err
				return
			}
			defer sess.Close()
			vals := make([]float64, world*elems)
			for i := 0; i < requests; i++ {
				for j := range vals {
					vals[j] = float64(s + i + j)
				}
				out, err := sess.Allreduce(vals)
				if err != nil {
					errs <- err
					return
				}
				for e, v := range out {
					if want := float64(world*(s+i+e) + elems*world*(world-1)/2); v != want {
						errs <- fmt.Errorf("session %d request %d element %d: got %v, want %v", s, i, e, v, want)
						return
					}
				}
			}
		}(s)
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// TestCheckObsGate is the observability gate: -check passes against a
// daemon under load and fails against one that has served nothing.
func TestCheckObsGate(t *testing.T) {
	// The latency histograms are process-global and never reset, so the
	// idle daemon shows empty quantiles only before this process's first
	// load (a rerun under -count sees the previous run's).
	histogramsEmpty := true
	for _, h := range metrics.Default().Summaries(true) {
		if h.Name == "adapt_serve_request_latency_ns" {
			histogramsEmpty = false
		}
	}
	srvAddr, adminAddr := startDaemon(t)

	t.Run("idle", func(t *testing.T) {
		_, err := runCheck(adminAddr, 500*time.Millisecond)
		switch {
		case err == nil:
			t.Fatal("check passed against a daemon that has served nothing")
		case histogramsEmpty && !strings.Contains(err.Error(), "no load observed"):
			t.Fatalf("check of an idle daemon: got %v, want a \"no load observed\" failure", err)
		}
	})

	t.Run("loaded", func(t *testing.T) {
		load := make(chan error, 1)
		go func() { load <- drive(srvAddr, 4, 64) }()
		res, err := runCheck(adminAddr, 30*time.Second)
		if lerr := <-load; lerr != nil {
			t.Fatalf("load: %v", lerr)
		}
		if err != nil {
			t.Fatal(err)
		}
		if res.samples == 0 || res.requests == 0 {
			t.Fatalf("check passed on %d samples and %d requests", res.samples, res.requests)
		}
		want(t, []string{"ctl", "-addr", adminAddr, "-check"}, 0, "check ok")
		want(t, []string{"ctl", "-addr", adminAddr}, 0, "adaptd @ "+adminAddr, "latency / size quantiles:")
	})
}

// TestCheckTimeoutHolds: a plane that accepts and never answers must
// fail the check within its deadline, not hang it.
func TestCheckTimeoutHolds(t *testing.T) {
	release := make(chan struct{})
	stall := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
	}))
	t.Cleanup(stall.Close)
	t.Cleanup(func() { close(release) }) // runs first: unblock handlers so Close returns

	const timeout = 300 * time.Millisecond
	start := time.Now()
	_, err := runCheck(strings.TrimPrefix(stall.URL, "http://"), timeout)
	took := time.Since(start)
	if err == nil {
		t.Fatal("check passed against a plane that never answers")
	}
	if took > timeout+time.Second {
		t.Fatalf("check took %v against a %v deadline", took, timeout)
	}
	want(t, []string{"ctl", "-addr", strings.TrimPrefix(stall.URL, "http://"), "-timeout", "100ms"}, 1)
}
