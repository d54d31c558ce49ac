package nettransport

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"adapt/internal/faults"
	"adapt/internal/fec"
	"adapt/internal/progress"
)

// LocalWorld is an n-rank communicator whose endpoints live in one
// process but talk over real TCP loopback sockets — every byte crosses
// the kernel, every protocol leg (eager, RTS/CTS, Bye) is the real wire
// exchange. It exists for tests and benchmarks: the conformance grid
// exercises the full socket path without paying a process spawn per
// case, while cmd/adaptrun runs the same endpoints as true OS processes.
type LocalWorld struct {
	comms  []*Comm
	guard  progress.RunGuard // Run's rank goroutines and watchdog
	closed bool
}

// NewLocalWorld creates n endpoints on loopback listeners and wires the
// full mesh. The world must be Closed to release the sockets.
func NewLocalWorld(n int, opts ...Option) (*LocalWorld, error) {
	if n <= 0 {
		panic(fmt.Sprintf("nettransport: world size %d", n))
	}
	cfg := defaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	w := &LocalWorld{}
	w.guard = progress.RunGuard{Prefix: "nettransport", Dump: w.pendingDump}
	addrs := make([]string, n)
	for r := 0; r < n; r++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			w.Close()
			return nil, err
		}
		c := newComm(r, n, ln, cfg)
		w.comms = append(w.comms, c)
		addrs[r] = ln.Addr().String()
	}
	var wg sync.WaitGroup
	errs := make([]error, n)
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = w.comms[r].joinMesh(addrs)
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			w.Close()
			return nil, err
		}
	}
	return w, nil
}

// WithRunTimeout bounds every Run call: if the ranks have not all
// returned within d, Run panics with a per-rank dump of pending
// operations instead of hanging the caller.
func (w *LocalWorld) WithRunTimeout(d time.Duration) *LocalWorld {
	w.guard.Timeout = d
	return w
}

// Rank returns rank r's endpoint.
func (w *LocalWorld) Rank(r int) *Comm { return w.comms[r] }

// Run executes body once per rank, each on its own goroutine, and blocks
// until all return. Panics aggregate across ranks like runtime.World.Run;
// a rank that hits its crash point exits silently (fail-stop) and is
// skipped by every later Run — a dead process does not come back.
func (w *LocalWorld) Run(body func(c *Comm)) {
	var live []int
	for _, c := range w.comms {
		if !c.crash.Dead(c.rank) {
			live = append(live, c.rank)
		}
	}
	w.guard.Run(live, func(r int) { body(w.comms[r]) })
}

// pendingDump renders each rank's unfinished operations for the watchdog.
func (w *LocalWorld) pendingDump() string {
	var b strings.Builder
	for _, c := range w.comms {
		pending, posted, unexpected := c.Snapshot()
		c.mu.Lock()
		sendPend, pulls := len(c.sendPend), len(c.pulls)
		c.mu.Unlock()
		fmt.Fprintf(&b, "rank %d: %d pending ops, %d posted recvs, %d unexpected, %d rdv sends, %d rdv pulls\n",
			c.rank, pending, len(posted), len(unexpected), sendPend, pulls)
		for _, req := range posted {
			fmt.Fprintf(&b, "  posted recv src=%d tag=%v\n", req.Src, req.Tag)
		}
		for _, env := range unexpected {
			fmt.Fprintf(&b, "  unexpected src=%d tag=%v rdv=%v\n", env.Src, env.Tag, env.Rdv)
		}
	}
	return b.String()
}

// FaultStats aggregates the injector counters across every endpoint
// (each rank draws and counts its own verdicts).
func (w *LocalWorld) FaultStats() faults.Stats {
	var s faults.Stats
	for _, c := range w.comms {
		cs := c.FaultStats()
		s.Drops += cs.Drops
		s.Dups += cs.Dups
		s.Corrupts += cs.Corrupts
		s.Delays += cs.Delays
		s.Retries += cs.Retries
		s.Timeouts += cs.Timeouts
		s.Suppressed += cs.Suppressed
	}
	return s
}

// FECStats aggregates the erasure-coding counters across every endpoint.
func (w *LocalWorld) FECStats() fec.Stats {
	var s fec.Stats
	for _, c := range w.comms {
		cs := c.FECStats()
		s.ParityEncoded += cs.ParityEncoded
		s.Reconstructed += cs.Reconstructed
		s.GroupsLost += cs.GroupsLost
	}
	return s
}

// Crashed returns the per-rank self-death mask (ranks that hit their
// crash point during a Run).
func (w *LocalWorld) Crashed() []bool {
	out := make([]bool, len(w.comms))
	for r, c := range w.comms {
		out[r] = c.crash.Dead(c.rank)
	}
	return out
}

// Close shuts every endpoint down cleanly (Bye handshakes first, then
// sockets). Ranks that crashed already cut their connections.
func (w *LocalWorld) Close() {
	if w.closed {
		return
	}
	w.closed = true
	for _, c := range w.comms {
		if c != nil && !c.crash.Dead(c.rank) {
			c.Close()
		}
	}
}
