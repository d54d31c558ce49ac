package serve

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"adapt/internal/perf"
)

// contrib builds a world*elems rank-major lattice contribution whose
// per-element sums are exact small integers (order-independent folds).
func contrib(world, elems, salt int) []float64 {
	vals := make([]float64, world*elems)
	for r := 0; r < world; r++ {
		for e := 0; e < elems; e++ {
			vals[r*elems+e] = float64((r+1)*(e+3) + salt)
		}
	}
	return vals
}

// wantSum is the expected allreduce of contrib's element e.
func wantSum(world, e, salt int) float64 {
	s := 0.0
	for r := 0; r < world; r++ {
		s += float64((r+1)*(e+3) + salt)
	}
	return s
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func TestAllreduceRoundTrip(t *testing.T) {
	srv := newTestServer(t, Config{DrainTimeout: 2 * time.Second})
	const world, elems = 4, 16
	sess, err := Dial(srv.Addr(), SessionOpts{World: world, ProxyRank: -1})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer sess.Close()

	for salt := 0; salt < 5; salt++ {
		out, err := sess.Allreduce(contrib(world, elems, salt))
		if err != nil {
			t.Fatalf("Allreduce salt %d: %v", salt, err)
		}
		if len(out) != elems {
			t.Fatalf("salt %d: got %d elements, want %d", salt, len(out), elems)
		}
		for e, v := range out {
			if want := wantSum(world, e, salt); v != want {
				t.Fatalf("salt %d element %d: got %v, want %v", salt, e, v, want)
			}
		}
	}
	if err := sess.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestPipelinedCalls(t *testing.T) {
	srv := newTestServer(t, Config{DrainTimeout: 2 * time.Second})
	const world, elems, inflight = 2, 8, 24
	sess, err := Dial(srv.Addr(), SessionOpts{World: world, ProxyRank: -1})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer sess.Close()

	calls := make([]*Call, inflight)
	for i := range calls {
		c, err := sess.StartAllreduce(contrib(world, elems, i))
		if err != nil {
			t.Fatalf("StartAllreduce %d: %v", i, err)
		}
		calls[i] = c
	}
	for i, c := range calls {
		out, _, err := c.Wait()
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		for e, v := range out {
			if want := wantSum(world, e, i); v != want {
				t.Fatalf("call %d element %d: got %v, want %v", i, e, v, want)
			}
		}
	}
}

func TestBackendCachingAndGenerations(t *testing.T) {
	srv := newTestServer(t, Config{DrainTimeout: 2 * time.Second})
	opts := SessionOpts{World: 2, Group: "tenant-a", ProxyRank: -1}

	s1, err := Dial(srv.Addr(), opts)
	if err != nil {
		t.Fatalf("Dial 1: %v", err)
	}
	s2, err := Dial(srv.Addr(), opts)
	if err != nil {
		t.Fatalf("Dial 2: %v", err)
	}
	if s1.Gen() != 1 || s2.Gen() != 1 {
		t.Fatalf("same-key sessions got generations %d and %d, want 1 and 1", s1.Gen(), s2.Gen())
	}
	if got := srv.Stats().Backends; got != 1 {
		t.Fatalf("two same-key sessions built %d backends, want 1 (cached)", got)
	}
	// A different key is a different backend, not a cache hit.
	s3, err := Dial(srv.Addr(), SessionOpts{World: 2, Group: "tenant-b", ProxyRank: -1})
	if err != nil {
		t.Fatalf("Dial 3: %v", err)
	}
	if got := srv.Stats().Backends; got != 2 {
		t.Fatalf("distinct-key session reused a backend: %d built, want 2", got)
	}
	// Cached backends survive their sessions: reconnecting still hits.
	s1.Close()
	s2.Close()
	s3.Close()
	s4, err := Dial(srv.Addr(), opts)
	if err != nil {
		t.Fatalf("Dial 4: %v", err)
	}
	defer s4.Close()
	if got := srv.Stats().Backends; got != 2 {
		t.Fatalf("reconnect built a new backend: %d, want 2", got)
	}
	if s4.Gen() != 1 {
		t.Fatalf("reconnect got generation %d, want cached generation 1", s4.Gen())
	}
}

func TestSessionPendingOverload(t *testing.T) {
	// A long fuse window parks requests server-side, so the session's
	// in-flight cap fills deterministically.
	srv := newTestServer(t, Config{
		SessionPending: 4,
		FuseWindow:     300 * time.Millisecond,
		FuseMaxReqs:    64,
		DrainTimeout:   3 * time.Second,
	})
	const world, elems = 2, 4
	sess, err := Dial(srv.Addr(), SessionOpts{World: world, ProxyRank: -1})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer sess.Close()

	var ok []*Call
	for i := 0; i < 4; i++ {
		c, err := sess.StartAllreduce(contrib(world, elems, i))
		if err != nil {
			t.Fatalf("StartAllreduce %d: %v", i, err)
		}
		ok = append(ok, c)
	}
	over, err := sess.StartAllreduce(contrib(world, elems, 99))
	if err != nil {
		t.Fatalf("StartAllreduce overflow: %v", err)
	}
	if _, _, err := over.Wait(); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("5th in-flight request: got %v, want typed Overloaded", err)
	}
	// The parked four complete once the fuse window flushes.
	for i, c := range ok {
		out, _, err := c.Wait()
		if err != nil {
			t.Fatalf("parked call %d: %v", i, err)
		}
		for e, v := range out {
			if want := wantSum(world, e, i); v != want {
				t.Fatalf("parked call %d element %d: got %v, want %v", i, e, v, want)
			}
		}
	}
}

// TestStalledClientBounded: a client that keeps sending requests and
// never reads its responses must not make the daemon hold unboundedly
// many frames for it. The session's writer queue fills to its cap, the
// in-flight budget is then never credited, the reader stops on its
// rejection frames, and TCP flow control stalls the client's writes
// long before it has sent everything.
func TestStalledClientBounded(t *testing.T) {
	cfg := Config{DrainTimeout: 200 * time.Millisecond}
	srv := newTestServer(t, cfg)
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.(*net.TCPConn).SetReadBuffer(4 << 10)

	// 64 two-rank requests of 4 elements per write, 128 MiB in all: far
	// more than the socket buffers on both sides can take in, even with
	// the daemon's send buffer packed with rejection frames.
	var batch bytes.Buffer
	for i := 0; i < 64; i++ {
		f := encodeReduce(cfAllreduce, uint64(i+1), contrib(2, 4, i))
		batch.Write(f)
		releaseFrame(f)
	}
	const total = 128 << 20
	hello := encodeHello(helloMsg{Proto: protoVersion, World: 2, ProxyRank: -1})
	_, err = conn.Write(hello)
	releaseFrame(hello)
	if err != nil {
		t.Fatal(err)
	}
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		for n := 0; n < total; n += batch.Len() {
			if _, err := conn.Write(batch.Bytes()); err != nil {
				return
			}
		}
	}()

	// Wait for the session reader to stop: no request admitted or
	// rejected for half a second.
	deadline := time.Now().Add(20 * time.Second)
	for last, still := uint64(0), 0; still < 10; time.Sleep(50 * time.Millisecond) {
		st := srv.Stats()
		if time.Now().After(deadline) {
			t.Fatalf("the reader never stopped: %d requests admitted, %d rejected", st.Requests, st.Overloads)
		}
		if n := st.Requests + st.Overloads; n != last || n == 0 {
			last, still = n, 0
		} else {
			still++
		}
	}
	select {
	case <-finished:
		t.Fatalf("the daemon took in all %d MiB from a client that never reads", total>>20)
	default:
	}
	srv.mu.Lock()
	var backlog []int
	for _, sess := range srv.sessions {
		backlog = append(backlog, sess.w.Backlog(0))
	}
	srv.mu.Unlock()
	if len(backlog) != 1 || backlog[0] > sessionQueue(srv.cfg) {
		t.Fatalf("session writer backlog %v frames, want one session at most %d",
			backlog, sessionQueue(srv.cfg))
	}
	st := srv.Stats()
	t.Logf("admitted %d requests, rejected %d, %d frames queued", st.Requests, st.Overloads, backlog[0])
	conn.Close()
	<-finished
}

func TestMaxSessionsRejected(t *testing.T) {
	srv := newTestServer(t, Config{MaxSessions: 2, DrainTimeout: 2 * time.Second})
	opts := SessionOpts{World: 2, ProxyRank: -1}
	s1, err := Dial(srv.Addr(), opts)
	if err != nil {
		t.Fatalf("Dial 1: %v", err)
	}
	defer s1.Close()
	s2, err := Dial(srv.Addr(), opts)
	if err != nil {
		t.Fatalf("Dial 2: %v", err)
	}
	defer s2.Close()
	if _, err := Dial(srv.Addr(), opts); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("3rd session: got %v, want typed Overloaded", err)
	}
}

func TestBadRequestShapes(t *testing.T) {
	srv := newTestServer(t, Config{DrainTimeout: 2 * time.Second})
	sess, err := Dial(srv.Addr(), SessionOpts{World: 3, ProxyRank: -1})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer sess.Close()
	// 8 values do not divide by world 3.
	if _, err := sess.Allreduce(make([]float64, 8)); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("indivisible shape: got %v, want typed BadRequest", err)
	}
	// The session survives a rejected request.
	if _, err := sess.Allreduce(contrib(3, 2, 0)); err != nil {
		t.Fatalf("request after rejection: %v", err)
	}
	// Oversized worlds are refused at Hello.
	if _, err := Dial(srv.Addr(), SessionOpts{World: 1000, ProxyRank: -1}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("oversized world: got %v, want typed BadRequest", err)
	}
}

func TestDrainBeforeClose(t *testing.T) {
	srv := newTestServer(t, Config{
		FuseWindow:   50 * time.Millisecond,
		FuseMaxReqs:  64,
		DrainTimeout: 5 * time.Second,
	})
	const world, elems, n = 2, 8, 12
	sess, err := Dial(srv.Addr(), SessionOpts{World: world, ProxyRank: -1})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	calls := make([]*Call, n)
	for i := range calls {
		c, err := sess.StartAllreduce(contrib(world, elems, i))
		if err != nil {
			t.Fatalf("StartAllreduce %d: %v", i, err)
		}
		calls[i] = c
	}
	// Close immediately: the daemon must retire every admitted request
	// before completing the Bye handshake.
	if err := sess.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	for i, c := range calls {
		out, _, err := c.Wait()
		if err != nil {
			t.Fatalf("in-flight call %d after drain: %v", i, err)
		}
		for e, v := range out {
			if want := wantSum(world, e, i); v != want {
				t.Fatalf("drained call %d element %d: got %v, want %v", i, e, v, want)
			}
		}
	}
}

func TestServerCloseDrainsSessions(t *testing.T) {
	srv, err := New(Config{DrainTimeout: 5 * time.Second})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	const world, elems = 2, 8
	var sessions []*Session
	for i := 0; i < 3; i++ {
		sess, err := Dial(srv.Addr(), SessionOpts{World: world, ProxyRank: -1})
		if err != nil {
			t.Fatalf("Dial %d: %v", i, err)
		}
		sessions = append(sessions, sess)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(4 * time.Second):
		t.Fatal("Server.Close did not finish with idle sessions open")
	}
	// Every client observed a clean shutdown and fails new work typed.
	for i, sess := range sessions {
		if _, err := sess.Allreduce(contrib(world, elems, 0)); err == nil {
			t.Fatalf("session %d accepted work after server close", i)
		}
		sess.Close()
	}
}

// TestConcurrentFTSubmissions pins the submit-ordering guarantee:
// blocking FT collectives from many sessions racing into one shared
// non-armed backend must land on every rank's queue in the same global
// order. An unserialized fan-out can enqueue two jobs in opposite
// orders on two ranks, leaving each rank blocked in a different
// collective with disjoint tags — a permanent deadlock this test turns
// into a timeout failure.
func TestConcurrentFTSubmissions(t *testing.T) {
	srv := newTestServer(t, Config{DrainTimeout: 5 * time.Second})
	const world, elems, nSess, nReq = 4, 8, 6, 8
	done := make(chan struct{})
	errs := make(chan error, nSess)
	var wg sync.WaitGroup
	for s := 0; s < nSess; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			sess, err := Dial(srv.Addr(), SessionOpts{World: world, ProxyRank: -1})
			if err != nil {
				errs <- fmt.Errorf("session %d dial: %w", s, err)
				return
			}
			defer sess.Close()
			for i := 0; i < nReq; i++ {
				salt := s*nReq + i
				vals := contrib(world, elems, salt)
				// Interleave a plain allreduce so FT jobs hit the
				// drain-then-block barrier with scheduled work in flight.
				if i%2 == 0 {
					if _, err := sess.Allreduce(vals); err != nil {
						errs <- fmt.Errorf("session %d allreduce %d: %w", s, i, err)
						return
					}
				}
				out, mask, err := sess.ReduceFT(vals)
				if err != nil {
					errs <- fmt.Errorf("session %d FT %d: %w", s, i, err)
					return
				}
				for r, alive := range mask {
					if !alive {
						errs <- fmt.Errorf("session %d FT %d: rank %d dead in a crash-free world", s, i, r)
						return
					}
				}
				for e, v := range out {
					if want := wantSum(world, e, salt); v != want {
						errs <- fmt.Errorf("session %d FT %d element %d: got %v, want %v", s, i, e, v, want)
						return
					}
				}
			}
		}(s)
	}
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("concurrent FT submissions deadlocked (per-rank queue orders diverged)")
	}
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestManySessionsConcurrent(t *testing.T) {
	srv := newTestServer(t, Config{
		FuseWindow:   time.Millisecond,
		DrainTimeout: 5 * time.Second,
	})
	const world, elems, nSess, nReq = 4, 8, 8, 6
	var wg sync.WaitGroup
	errs := make(chan error, nSess)
	for s := 0; s < nSess; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			sess, err := Dial(srv.Addr(), SessionOpts{World: world, ProxyRank: -1})
			if err != nil {
				errs <- fmt.Errorf("session %d dial: %w", s, err)
				return
			}
			defer sess.Close()
			for i := 0; i < nReq; i++ {
				salt := s*nReq + i
				out, err := sess.Allreduce(contrib(world, elems, salt))
				if err != nil {
					errs <- fmt.Errorf("session %d req %d: %w", s, i, err)
					return
				}
				for e, v := range out {
					if want := wantSum(world, e, salt); v != want {
						errs <- fmt.Errorf("session %d req %d element %d: got %v, want %v", s, i, e, v, want)
						return
					}
				}
			}
		}(s)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := srv.Stats()
	if st.Sessions != nSess || st.Requests != nSess*nReq {
		t.Fatalf("stats: %d sessions / %d requests, want %d / %d",
			st.Sessions, st.Requests, nSess, nSess*nReq)
	}
}

// TestServeLoadPointsClean is the serving layer's clean-load gate: a
// daemon configured as adaptd -fuse 200us takes three load points over
// TCP (1x64, 4x64 and 16x32 sessions x requests, 4 requests in flight
// per session, 4 ranks x 16 elements), every result is checked, and
// after Close no request may have been rejected or failed and no
// connection lost: ServeTrouble and NetTrouble stay zero.
func TestServeLoadPointsClean(t *testing.T) {
	const world, elems, inFlight = 4, 16, 4
	before := perf.Read()
	srv, err := New(Config{FuseWindow: 200 * time.Microsecond, DrainTimeout: 5 * time.Second})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	session := func(saltBase, requests int) error {
		sess, err := Dial(srv.Addr(), SessionOpts{World: world, Group: "load", ProxyRank: -1})
		if err != nil {
			return err
		}
		defer sess.Close()
		type pending struct {
			call *Call
			salt int
		}
		var window []pending
		finish := func(p pending) error {
			out, _, err := p.call.Wait()
			if err != nil {
				return fmt.Errorf("salt %d: %w", p.salt, err)
			}
			for e, v := range out {
				if want := wantSum(world, e, p.salt); v != want {
					return fmt.Errorf("salt %d element %d: got %v, want %v", p.salt, e, v, want)
				}
			}
			return nil
		}
		for i := 0; i < requests; i++ {
			if len(window) == inFlight {
				if err := finish(window[0]); err != nil {
					return err
				}
				window = window[1:]
			}
			c, err := sess.StartAllreduce(contrib(world, elems, saltBase+i))
			if err != nil {
				return err
			}
			window = append(window, pending{c, saltBase + i})
		}
		for _, p := range window {
			if err := finish(p); err != nil {
				return err
			}
		}
		return nil
	}
	total := 0
	for pi, pt := range []struct{ sessions, requests int }{{1, 64}, {4, 64}, {16, 32}} {
		var wg sync.WaitGroup
		errs := make(chan error, pt.sessions)
		for s := 0; s < pt.sessions; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				if err := session(pi*100_000+s*1_000, pt.requests); err != nil {
					errs <- fmt.Errorf("point %dx%d session %d: %w", pt.sessions, pt.requests, s, err)
				}
			}(s)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
		total += pt.sessions * pt.requests
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := srv.Stats().Requests; got != uint64(total) {
		t.Errorf("daemon admitted %d requests, want %d", got, total)
	}
	d := perf.Read().Delta(before)
	if d.ServeTrouble() != 0 || d.NetTrouble() != 0 {
		t.Errorf("clean load moved the trouble counters: %d overloads, %d rank fails, %d rank deaths, %d net",
			d.ServeOverloads, d.ServeRankFails, d.ServeRankDeaths, d.NetTrouble())
	}
}
