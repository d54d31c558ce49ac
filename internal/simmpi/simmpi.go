// Package simmpi implements comm.Comm on top of the discrete-event
// simulator, so the collective algorithms in internal/coll and
// internal/core run unmodified at 1000+-rank scale.
//
// The matching engine — posted/unexpected queues, tag matching,
// completion callbacks, wait loops — is the shared core in
// internal/progress; this package supplies the simulated substrate
// around it:
//
//   - Eager protocol for messages up to Params.EagerLimit: the payload is
//     pushed immediately; if it arrives before the matching receive is
//     posted it sits in the unexpected queue and the receiver pays an
//     extra buffering copy at match time — the cost ADAPT's M > N
//     in-flight receive window is designed to avoid (paper §2.2.1).
//   - Rendezvous protocol for larger messages: the sender posts an RTS
//     control message and the data transfer starts only once the receiver
//     has matched it, coupling the two ranks — the hidden synchronization
//     that propagates noise through blocking collectives (paper §2.1.1).
//
// Noise (internal/noise) freezes a rank's progress engine: whenever the
// rank resumes from a wait, its continuation is pushed to the noise
// availability horizon.
package simmpi

import (
	"fmt"
	"time"

	"adapt/internal/comm"
	"adapt/internal/faults"
	"adapt/internal/fec"
	"adapt/internal/netmodel"
	"adapt/internal/noise"
	"adapt/internal/pool"
	"adapt/internal/progress"
	"adapt/internal/sim"
	"adapt/internal/trace"
)

// World is a simulated communicator spanning all ranks of a platform.
type World struct {
	K    *sim.Kernel
	Net  *netmodel.Net
	Spec noise.Spec
	// Trace, when non-nil, receives every point-to-point and compute
	// event (see internal/trace).
	Trace *trace.Buffer
	ranks []*Comm

	// Fault injection (nil inj = fault-free fast paths; see chaos.go).
	inj     *faults.Injector
	rec     faults.Recovery
	xmitSeq uint64 // world-unique reliable-transmission ids
	// Erasure coding over the eager segment stream (nil = off; see fec.go).
	fec      *fec.Framer[*xmit]
	fecStats fec.Counters
	// Fail-stop crash schedule and detector (nil = no crash rules armed;
	// see crash.go).
	crash *faults.Plane

	// Recycled transfer records: clean point-to-point legs (see p2p.go),
	// reliable transmissions and wire copies (see chaos.go and fec.go).
	p2ps  pool.List[p2p]
	xmits pool.List[xmit]
	wires pool.List[wire]
}

// NewWorld builds the per-rank endpoints for platform p with the given
// noise law on kernel k.
func NewWorld(k *sim.Kernel, p *netmodel.Platform, spec noise.Spec) *World {
	w := &World{K: k, Net: netmodel.NewNet(k, p), Spec: spec}
	w.p2ps, w.xmits, w.wires = newP2PList(w), newXmitList(w), newWireList(w)
	n := p.Topo.Size()
	w.ranks = make([]*Comm, n)
	for r := 0; r < n; r++ {
		c := &Comm{w: w, rank: r, noiseSrc: spec.NewSource(r)}
		c.Engine = progress.New(progress.Backend{
			Prefix: "simmpi",
			Rank:   r,
			Size:   n,
			Now:    k.Now,
			Trace:  func() *trace.Buffer { return w.Trace },
			Wake: func() {
				if c.flat {
					c.armDrain()
					return
				}
				if c.proc != nil {
					c.proc.Unpark()
				}
			},
			Block: func() {
				if c.flat {
					panic(fmt.Sprintf("simmpi: flat rank %d blocked — flat-mode drivers must stay nonblocking (use Start*/OnComplete/OnIdle)", c.rank))
				}
				c.proc.Park()
				c.noiseResume()
			},
			OnMatch:        c.onMatch,
			SingleThreaded: true,
		})
		w.ranks[r] = c
	}
	return w
}

// Size returns the number of ranks.
func (w *World) Size() int { return len(w.ranks) }

// Spawn starts one simulated process per rank running body. Call
// Kernel.Run afterwards to execute the simulation.
func (w *World) Spawn(body func(c *Comm)) {
	for _, c := range w.ranks {
		c := c
		c.proc = w.K.Go(fmt.Sprintf("rank-%d", c.rank), func(p *sim.Proc) {
			body(c)
			if n := c.Pending(); n != 0 {
				panic(fmt.Sprintf("simmpi: rank %d finished with %d operations in flight", c.rank, n))
			}
		})
	}
}

// Rank returns rank r's endpoint (for callers that need targeted setup).
func (w *World) Rank(r int) *Comm { return w.ranks[r] }

// InstallFaults arms the chaos transport: every point-to-point unit is
// subjected to the plan's verdicts and carried by the ack/retry machinery
// tuned by rec (zero fields take defaults). Must be called before Spawn.
func (w *World) InstallFaults(p faults.Plan, rec faults.Recovery) {
	w.inj = faults.NewInjector(p)
	w.rec = rec.Normalized()
	w.armCrashes(p)
}

// FaultStats returns what the injector did; zero when no plan installed.
func (w *World) FaultStats() faults.Stats { return w.inj.Stats() }

// Failures lists the operations that exhausted their attempt budget, in
// virtual-time order. Empty when every message was recovered.
func (w *World) Failures() []*faults.TimeoutError { return w.inj.Failures() }

// Comm is one simulated rank's endpoint. It implements comm.Comm and, on
// GPU platforms, comm.DeviceComm. The embedded engine supplies matching,
// the wait loops, notices and tracing; this type supplies the simulated
// transport.
type Comm struct {
	*progress.Engine
	w    *World
	rank int
	proc *sim.Proc

	busyUntil time.Duration
	noiseSrc  *noise.Source

	// Flat rank-scheduling mode (see flat.go): the rank is this struct,
	// not a goroutine. busyUntil doubles as the rank's forward clock —
	// Compute advances it without blocking, sends launch lagged to it,
	// and completion callbacks run from deduplicated kernel drain events.
	flat       bool
	drainArmed bool
	drainFn    func()
	onIdle     func()
}

var _ comm.Comm = (*Comm)(nil)
var _ comm.DeviceComm = (*Comm)(nil)

// Now returns the rank's virtual clock.
func (c *Comm) Now() time.Duration { return c.w.K.Now() }

// noiseResume delays the rank to its noise availability horizon. Called
// whenever the rank is about to continue executing after a wake-up.
func (c *Comm) noiseResume() {
	avail := c.noiseSrc.AvailableAt(c.proc.Now(), c.busyUntil)
	c.busyUntil = avail
	c.proc.SleepUntil(avail)
}

// resolveSpace maps MemDefault to the platform's payload home.
func (c *Comm) resolveSpace(s comm.MemSpace) comm.MemSpace { return c.w.Net.ResolveSpace(s) }

// Isend starts a non-blocking send of msg to dst. The request's
// substrate reference travels with it through the protocol's records
// (see p2p.go and chaos.go), which release it when they are done.
func (c *Comm) Isend(dst int, tag comm.Tag, msg comm.Msg) comm.Request {
	if dst < 0 || dst >= c.Size() {
		panic(fmt.Sprintf("simmpi: send to rank %d of %d", dst, c.Size()))
	}
	c.w.noteSend(c) // crash point: the rank may die initiating this send
	req := c.StartSend(dst, tag, msg.Size)
	if lag := c.sendLag(); lag > 0 {
		// Flat mode with the rank's busy clock ahead of virtual time: the
		// protocol launches when the rank would actually have issued it.
		x := c.w.newP2P(c.rank, dst, tag, msg, 1)
		x.send = req
		c.w.K.Schedule(lag, x.launchFn)
	} else {
		c.launchSend(req, dst, tag, msg)
	}
	return req
}

// sendLag returns how far this rank's busy clock runs ahead of virtual
// time. Always zero in proc mode (the goroutine slept through its
// compute, so its clock IS virtual time); in flat mode Compute advances
// busyUntil without blocking and sends must launch lagged to it.
func (c *Comm) sendLag() time.Duration {
	if !c.flat {
		return 0
	}
	if now := c.w.K.Now(); c.busyUntil > now {
		return c.busyUntil - now
	}
	return 0
}

// launchSend runs the send protocol for an already-registered request:
// eager push or rendezvous announcement. Runs at the rank's issue time
// and takes over the request's substrate reference.
func (c *Comm) launchSend(req *progress.Req, dst int, tag comm.Tag, msg comm.Msg) {
	if msg.Size > c.w.Net.P.EagerLimit {
		// Rendezvous: announce via RTS; data moves once the receiver matches.
		c.sendRTS(req, dst, tag, msg)
		return
	}
	if c.w.inj != nil {
		c.chaosEager(dst, req, tag, msg)
		return
	}
	// Eager: ship the payload now; sender completes at first-hop end.
	// Real payloads are snapshotted into a pooled buffer — the sender
	// may reuse its buffer the moment the send completes, which is
	// before the match — and the receiver owns the copy from here on.
	x := c.w.newP2P(c.rank, dst, tag, msg, 2)
	x.send = req
	if msg.Data != nil {
		x.data = comm.GetBuf(len(msg.Data))
		copy(x.data, msg.Data)
	}
	c.w.Net.StartTransfer(c.rank, dst, msg.Size, msg.Space, x.sentFn, x.arriveFn)
}

// sendRTS announces a rendezvous send to dst; the sender's request
// completes once the receiver has matched and pulled the data.
func (c *Comm) sendRTS(req *progress.Req, dst int, tag comm.Tag, msg comm.Msg) {
	if c.w.inj != nil {
		c.chaosRendezvous(dst, req, tag, msg)
		return
	}
	x := c.w.newP2P(c.rank, dst, tag, msg, 1)
	x.send = req
	c.w.K.Schedule(c.w.Net.ControlLatency(c.rank, dst)+c.w.Net.P.RndvAlpha, x.announceFn)
}

// IrecvIn posts a non-blocking receive whose buffer lives in the given
// memory space (the §4.1 staging optimization receives GPU-bound traffic
// into an explicit host buffer).
func (c *Comm) IrecvIn(src int, tag comm.Tag, space comm.MemSpace) comm.Request {
	return c.PostRecv(src, tag, space)
}

// arrive processes a payload or RTS reaching this rank's host boundary.
// Runs in kernel event context.
func (c *Comm) arrive(env *progress.Env) {
	if c.Engine.Arrive(env) == progress.ArriveHalted {
		// The rank crashed after this copy left its sender (the chaos
		// transport normally annihilates such copies before arrival, so
		// this is a defensive path). Otherwise the envelope matched
		// (consumed via onMatch) or parked unexpected.
		c.refuse(env)
	}
}

// onMatch completes the (req, env) match. wasUnexpected indicates the
// payload sat in the unexpected queue and must be copied out. The
// envelope is recycled here; every field still needed below is copied
// into locals first, and the references held by req (from the engine)
// and by env.Rts move into the record that carries the match on.
func (c *Comm) onMatch(req *progress.Req, env *progress.Env, wasUnexpected bool) {
	net := c.w.Net
	src, tag, msg, sender := env.Src, env.Tag, env.Msg, env.Rts
	if sender != nil {
		req.MatchID = sender.PostID // causal Link: this receive consumed that send
	}
	c.FreeEnv(env)
	if sender != nil && c.w.inj != nil {
		c.chaosGrant(req, src, tag, msg, sender)
		return
	}
	if sender != nil {
		// Rendezvous: grant (CTS) travels back, then the data flies (see
		// p2p.grant); both requests complete before the record retires.
		x := c.w.newP2P(src, c.rank, tag, msg, 2)
		x.recv, x.send = req, sender
		c.w.K.Schedule(net.ControlLatency(c.rank, src)+net.P.RndvAlpha, x.grantFn)
		return
	}
	// Eager payload already at the host boundary (and, when real, already a
	// pooled copy owned by this rank — see launchSend).
	x := c.w.newP2P(src, c.rank, tag, msg, 1)
	x.recv, x.data = req, msg.Data
	if wasUnexpected {
		// Buffered copy-out penalty (paper §2.2.1: "memory allocation and
		// data copying ... significant latency").
		c.w.K.Schedule(net.P.UnexpectedAlpha+net.P.CopyBw.Over(msg.Size), x.landFn)
		return
	}
	x.land()
}

// Send performs a blocking send (Isend + Wait): for rendezvous sizes it
// returns only after the receiver matched, the handshake that couples
// blocking ranks together.
func (c *Comm) Send(dst int, tag comm.Tag, msg comm.Msg) {
	c.Wait(c.Isend(dst, tag, msg))
}

// Ssend performs a synchronous-mode send (MPI_Ssend): the rendezvous
// handshake is forced regardless of size, so it returns only once the
// receiver has matched.
func (c *Comm) Ssend(dst int, tag comm.Tag, msg comm.Msg) {
	if dst < 0 || dst >= c.Size() {
		panic(fmt.Sprintf("simmpi: ssend to rank %d of %d", dst, c.Size()))
	}
	c.w.noteSend(c) // crash point: the rank may die initiating this send
	req := c.StartSend(dst, tag, msg.Size)
	c.sendRTS(req, dst, tag, msg)
	c.Wait(req)
}

// Compute charges n bytes of blocking local work to this rank.
func (c *Comm) Compute(n int, kind comm.ComputeKind) {
	c.ComputeFor(c.w.Net.CPUCost(n, kind))
}

// ComputeFor charges an explicit blocking local-work duration. The
// compute span becomes the rank's causal context: whatever the handler
// posts next depends on this work having finished.
func (c *Comm) ComputeFor(d time.Duration) {
	if tb := c.w.Trace; tb != nil {
		if id := tb.Add(trace.Record{At: c.w.K.Now(), Rank: c.rank, Kind: trace.Compute,
			Peer: -1, Dur: d, Parent: c.TraceSetCause(0)}); id != 0 {
			c.TraceSetCause(id)
		}
	}
	if c.flat {
		// Flat rank: charge the work to the busy clock without blocking.
		// Sends issued after this charge launch lagged to the new clock
		// (sendLag), and queued completion callbacks wait for it (the
		// DrainWhile gate) — the same virtual-time trajectory the proc
		// mode produces by sleeping here.
		c.busyUntil = c.noiseSrc.AvailableAt(c.w.K.Now(), c.busyUntil) + d
		c.armDrain() // realize the clock as a kernel event (makespan parity)
		return
	}
	c.noiseResume()
	c.proc.Sleep(d)
	c.busyUntil = c.proc.Now()
}

// DeviceReduce offloads an n-byte reduction to this rank's GPU (§4.2).
func (c *Comm) DeviceReduce(n int) comm.Request {
	req := c.StartOp(true)
	c.w.Net.GPUReduce(c.rank, n, func() {
		req.Complete(comm.Status{Source: c.rank})
		req.Release()
	})
	return req
}

// AsyncCopy starts an asynchronous host↔device copy (§4.1 staging flush).
func (c *Comm) AsyncCopy(n int, from, to comm.MemSpace) comm.Request {
	req := c.StartOp(true)
	c.w.Net.AsyncCopy(c.rank, n, from, to, func() {
		req.Complete(comm.Status{Source: c.rank})
		req.Release()
	})
	return req
}

// DefaultSpace reports where this rank's payloads live.
func (c *Comm) DefaultSpace() comm.MemSpace { return c.resolveSpace(comm.MemDefault) }
