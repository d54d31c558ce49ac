// Package runtime is the live, in-process message-passing substrate: one
// goroutine per rank, real payload movement, and the same matching-engine
// semantics as a real MPI point-to-point layer (posted-receive queue,
// unexpected-message queue, eager and rendezvous protocols, completion
// callbacks fired from the owner's progress loop).
//
// It implements comm.Comm, so every collective in internal/coll and
// internal/core — including ADAPT's event-driven state machines — runs on
// it unchanged, with real concurrency instead of simulated time. The
// simulator (internal/simmpi) reproduces the paper's scale; this runtime
// proves the algorithms against a genuinely parallel executor and backs
// the runnable examples.
//
// Matching itself — posted/unexpected queues, wait loops, callback
// delivery — is the shared core in internal/progress; this package
// supplies the live transport: goroutine-to-goroutine payload hand-off
// with real pooled copies at the protocol-mandated points.
package runtime

import (
	"fmt"
	"sync/atomic"
	"time"

	"adapt/internal/comm"
	"adapt/internal/faults"
	"adapt/internal/fec"
	"adapt/internal/progress"
	"adapt/internal/trace"
)

// DefaultEagerLimit is the eager/rendezvous protocol switch-over.
const DefaultEagerLimit = 8 * 1024

// World is a live communicator: n ranks sharing an address space.
type World struct {
	ranks      []*Comm
	start      time.Time
	eagerLimit int
	guard      progress.RunGuard // Run's rank goroutines and watchdog

	// Trace, when non-nil, receives every point-to-point event with causal
	// edges. Timestamps are wall-clock offsets from the world's creation,
	// so unlike the simulator's virtual-time traces they vary run to run.
	Trace *trace.Buffer

	// Fault injection (nil inj = fault-free fast paths; see chaos.go).
	inj *faults.Injector
	rec faults.Recovery

	// Erasure coding over the eager segment stream (nil = off; see fec.go).
	fec      *fec.Framer[*fecMember]
	fecCfg   fec.Config
	fecStats fec.Counters

	// Fail-stop crash schedule and detector (nil = no crash rules armed;
	// see crash.go).
	crash *faults.Plane
}

// Option configures a World.
type Option func(*World)

// WithEagerLimit overrides the eager protocol threshold.
func WithEagerLimit(n int) Option {
	return func(w *World) { w.eagerLimit = n }
}

// WithRunTimeout bounds every Run call: if the ranks have not all returned
// within d, Run panics with a per-rank dump of pending operations instead
// of hanging the caller (and, under `go test`, the whole test binary).
func WithRunTimeout(d time.Duration) Option {
	return func(w *World) { w.guard.Timeout = d }
}

// WithTrace attaches a causal trace buffer to the world.
func WithTrace(tb *trace.Buffer) Option {
	return func(w *World) { w.Trace = tb }
}

// NewWorld creates a communicator with n ranks.
func NewWorld(n int, opts ...Option) *World {
	if n <= 0 {
		panic(fmt.Sprintf("runtime: world size %d", n))
	}
	w := &World{start: time.Now(), eagerLimit: DefaultEagerLimit}
	w.guard = progress.RunGuard{Prefix: "runtime", Dump: w.pendingDump}
	for _, o := range opts {
		o(w)
	}
	if w.fecCfg.Enabled() && w.inj != nil {
		w.fec = fec.NewFramer(w.fecCfg, &w.fecStats, w.rec.RTO/4,
			faults.WallClock(w.start).After, w.sealFEC)
	}
	for r := 0; r < n; r++ {
		c := &Comm{w: w, rank: r}
		if w.inj != nil {
			c.xids = make([]atomic.Uint64, n)
		}
		c.Engine = progress.New(progress.Backend{
			Prefix:  "runtime",
			Rank:    r,
			Size:    n,
			Now:     c.Now,
			Trace:   func() *trace.Buffer { return w.Trace },
			OnMatch: c.onMatch,
			// Chaos duplicates are real second copies racing through
			// deliver; the engine suppresses them by transmission id.
			DedupXids: true,
		})
		w.ranks = append(w.ranks, c)
	}
	w.armCrashes()
	return w
}

// Size returns the number of ranks.
func (w *World) Size() int { return len(w.ranks) }

// Rank returns rank r's endpoint.
func (w *World) Rank(r int) *Comm { return w.ranks[r] }

// Run executes body once per rank, each on its own goroutine, and blocks
// until all return. If any ranks panic, Run re-panics with every rank's
// failure (not just the first drained one) so a collective bug that kills
// several ranks at once is diagnosable from a single message.
func (w *World) Run(body func(c *Comm)) {
	ranks := make([]int, len(w.ranks))
	for r := range ranks {
		ranks[r] = r
	}
	w.guard.Run(ranks, func(r int) { body(w.ranks[r]) })
}

// Comm is one rank's endpoint. Its blocking methods must be called from
// the rank's own goroutine; internal delivery may run on peer goroutines.
// The embedded engine supplies matching, the wait loops, notices and
// tracing; this type supplies the goroutine-to-goroutine transport.
type Comm struct {
	*progress.Engine
	w    *World
	rank int

	// xids[dst] numbers this rank's fault-injected transmissions to dst
	// (nil without a fault plan; see chaos.go).
	xids []atomic.Uint64
}

var _ comm.Comm = (*Comm)(nil)

// Now returns wall time since the world was created.
func (c *Comm) Now() time.Duration { return time.Since(c.w.start) }

// Compute is a no-op in the live runtime: real work (reductions, copies)
// is performed for real by the caller; there is nothing to charge.
func (c *Comm) Compute(n int, kind comm.ComputeKind) {}

// Isend starts a non-blocking send.
func (c *Comm) Isend(dst int, tag comm.Tag, msg comm.Msg) comm.Request {
	if dst < 0 || dst >= c.Size() {
		panic(fmt.Sprintf("runtime: send to rank %d of %d", dst, c.Size()))
	}
	c.w.noteSend(c) // crash point: the rank may die initiating this send
	req := c.StartSend(dst, tag, msg.Size)
	d := c.w.ranks[dst]
	st := comm.Status{Source: c.rank, Tag: tag, Msg: msg}
	if msg.Size <= c.w.eagerLimit {
		// Eager: copy the payload out (the sender may reuse its buffer as
		// soon as we return) and deliver; the send completes immediately.
		// The copy is pooled and ownership passes to the receiver.
		delivered := msg
		if msg.Data != nil {
			buf := comm.GetBuf(len(msg.Data))
			copy(buf, msg.Data)
			delivered.Data = buf
		}
		env := &progress.Env{Src: c.rank, Tag: tag, Msg: delivered, PostID: req.PostID}
		if c.w.inj != nil {
			c.chaosDeliver(d, env, msg.Size)
		} else {
			d.deliver(env)
		}
		req.Complete(st)
		return req
	}
	// Rendezvous: announce; the payload is pulled zero-copy when matched,
	// completing this request only then.
	env := &progress.Env{Src: c.rank, Tag: tag, Msg: msg, Rts: req, PostID: req.PostID}
	if c.w.inj != nil {
		c.chaosDeliver(d, env, msg.Size)
	} else {
		d.deliver(env)
	}
	return req
}

// deliver hands an incoming envelope to the matching engine. Runs on the
// sender's goroutine (or a timer goroutine for fault-delayed copies).
func (c *Comm) deliver(env *progress.Env) {
	if c.w.crash.Dead(env.Src) {
		// Annihilation: a copy in flight from a crashed rank vanishes at
		// arrival (timer-delayed chaos copies can outlive their sender). A
		// rendezvous announcement's request will never be waited on again.
		if env.Rts == nil && env.Msg.Data != nil {
			comm.PutBuf(env.Msg.Data)
		}
		return
	}
	switch c.Arrive(env) {
	case progress.ArriveHalted:
		// Traffic addressed to a crashed rank: refuse it so a live
		// rendezvous sender fails instead of waiting forever for a grant.
		c.refuse(env)
	case progress.ArriveDuplicate:
		c.suppress(env)
	}
}

// onMatch completes a matched (receive, envelope) pair. For rendezvous
// envelopes it pulls the payload and releases the sender.
func (c *Comm) onMatch(req *progress.Req, env *progress.Env, wasUnexpected bool) {
	msg := env.Msg
	var err error
	if env.Rts != nil {
		// Pull the payload out of the sender's buffer, straight into the
		// posted buffer (IrecvInto) or a pooled copy the receiver owns;
		// after the sender's request completes the sender may scribble on
		// its buffer.
		var dst []byte
		if dst, err = req.Dest(env.Src, env.Tag, msg); err == nil && dst != nil {
			copy(dst, msg.Data)
		}
		msg.Data = dst
		env.Rts.Complete(comm.Status{Source: env.Src, Tag: env.Tag, Msg: env.Msg})
	} else {
		// An eager payload is already a pooled copy the receiver owns.
		msg, err = req.Land(env.Src, env.Tag, msg)
	}
	req.Complete(comm.Status{Source: env.Src, Tag: env.Tag, Msg: msg, Err: err})
}

// Send performs a blocking send: for rendezvous-size messages it returns
// only once the receiver has matched (the paper's §2.1.1 handshake).
func (c *Comm) Send(dst int, tag comm.Tag, msg comm.Msg) {
	c.Wait(c.Isend(dst, tag, msg))
}

// Ssend performs a synchronous-mode send (MPI_Ssend): it returns only
// once the receiver has matched, regardless of message size — the
// rendezvous handshake is forced even for eager-sized payloads.
func (c *Comm) Ssend(dst int, tag comm.Tag, msg comm.Msg) {
	if dst < 0 || dst >= c.Size() {
		panic(fmt.Sprintf("runtime: ssend to rank %d of %d", dst, c.Size()))
	}
	c.w.noteSend(c) // crash point: the rank may die initiating this send
	req := c.StartSend(dst, tag, msg.Size)
	d := c.w.ranks[dst]
	env := &progress.Env{Src: c.rank, Tag: tag, Msg: msg, Rts: req, PostID: req.PostID}
	if c.w.inj != nil {
		c.chaosDeliver(d, env, msg.Size)
	} else {
		d.deliver(env)
	}
	c.Wait(req)
}
