package nettransport

import (
	goruntime "runtime"

	"adapt/internal/comm"
	"adapt/internal/faults"
	"adapt/internal/metrics"
	"adapt/internal/perf"
	"adapt/internal/progress"
	"adapt/internal/trace"
)

// mDetectLatency brackets the failure detector: from the moment a
// connection loss is observed (peerLost) to the lease-confirmed death
// commit. The spread is dominated by ConfirmAfter, so the histogram is
// the operator's view of effective detection latency under the
// configured recovery leases.
var mDetectLatency = metrics.NewHistogram("adapt_detector_confirm_latency_ns",
	"suspicion-to-confirmation latency of the lease failure detector")

// Lease-based failure detection over sockets. The trigger is observed
// teardown — a connection that errors or hits EOF without the Bye
// handshake — rather than inferred silence: TCP resets and FINs from a
// dying process arrive promptly on loopback, and a lease on top of the
// observation keeps a transient glitch from instantly committing a
// death. The leases are the shared fail-stop plane's (faults.Plane, one
// per endpoint, wall-clock timers); confirmation fans a death Notice
// to the owner's control plane and fails every pending operation that
// depended on the dead peer.

// peerLost records a connection loss without the clean handshake and
// hands the peer to the lease detector. Callable from any goroutine;
// idempotent per peer.
func (c *Comm) peerLost(rank int, cause error) {
	c.mu.Lock()
	if c.closed || c.crash.Down(rank) {
		c.mu.Unlock()
		return
	}
	c.lostAt[rank] = metrics.Clock()
	c.mu.Unlock()
	if !c.crash.Lost(rank) {
		return
	}
	perf.RecordNetPeerDown()
	if tb := c.cfg.traceBuf; tb != nil {
		tb.Add(trace.Record{At: c.Now(), Rank: c.rank, Kind: trace.Crash, Peer: rank})
	}
	c.sched.markDead(rank, cause)
}

// confirmDeath is the detector's confirm action: notify the owner and
// fail every pending operation waiting on the dead peer.
func (c *Comm) confirmDeath(rank int) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	lostAt := c.lostAt[rank]

	// Rendezvous sends parked on a grant that will never come.
	for xid, req := range c.sendPend {
		if req.Dst != rank {
			continue
		}
		delete(c.sendPend, xid)
		req.Complete(comm.Status{Source: c.rank, Tag: req.Tag,
			Err: &faults.TimeoutError{Rank: c.rank, Peer: rank, Tag: req.Tag, Attempts: 1}})
	}
	// Matched receives parked on a payload that will never stream.
	for key := range c.pulls {
		if key.src == rank {
			c.failPullLocked(key)
		}
	}
	c.mu.Unlock()

	// Rendezvous announcements from the dead peer still sitting unexpected
	// can never be granted; drop them so a later Irecv does not park
	// forever on a dead sender.
	c.DropUnexpected(func(env *progress.Env) bool {
		return env.Src == rank && env.Rdv
	})

	c.PushNotice(comm.Notice{Kind: comm.NoticeDeath, Rank: rank})
	mDetectLatency.ObserveSince(lostAt)
	if f := c.cfg.onPeerDeath; f != nil {
		f(rank)
	}
}

// isClosed reports whether clean shutdown has begun.
func (c *Comm) isClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// noteSend counts one send initiation; at the rank's crash point it
// tears the process's connections down abruptly — no Bye — and leaves
// via the configured exit hook. Owner-goroutine only.
func (c *Comm) noteSend() {
	if !c.crash.NoteSend(c.rank) {
		return
	}
	if tb := c.cfg.traceBuf; tb != nil {
		tb.Add(trace.Record{At: c.Now(), Rank: c.rank, Kind: trace.Crash, Peer: -1})
	}
	c.die()
	if c.cfg.crashExit != nil {
		c.cfg.crashExit()
	}
	// Fail-stop means the rank stops: no configured exit hook leaves via
	// Goexit so the rank's goroutine never executes another instruction.
	goruntime.Goexit()
}

// die is the fail-stop half of a crash: every connection is cut without
// the Bye handshake, so peers observe exactly what a killed process
// leaves behind. The dying endpoint marks itself closed first so its own
// I/O loop observing the teardown never feeds the (now moot) detector.
func (c *Comm) die() {
	c.markClosed()
	// Kill every send queue (backlogs dispose, the writer drains and
	// exits), then cut the sockets.
	c.sched.markAllDead(errCrashed{})
	c.sched.closeAll()
	c.cutSockets()
}

type errCrashed struct{}

func (errCrashed) Error() string { return "nettransport: rank crashed (fail-stop)" }

// Close performs the clean shutdown handshake: a Bye frame to every live
// peer, the send scheduler drained, the readiness loop stopped, sockets
// closed. After Close the endpoint must not be used. Losses observed
// during teardown never count as deaths.
func (c *Comm) Close() {
	if !c.markClosed() {
		return
	}
	for r, cs := range c.conns {
		if cs != nil {
			c.sched.enqueue(r, outFrame{hdr: encodeBye()})
		}
	}
	c.sched.closeAll()
	<-c.sched.done // writer flushed (or gave up); the Byes are on the wire
	c.cutSockets()
}

// markClosed begins teardown — losses are expected from here on, the
// detector and the FEC sender stand down — and reports whether the
// endpoint was still open.
func (c *Comm) markClosed() bool {
	c.mu.Lock()
	was := c.closed
	c.closed = true
	c.mu.Unlock()
	if was {
		return false
	}
	c.crash.Stop()
	if c.fecTx != nil {
		c.fecTx.shutdown()
	}
	return true
}

// cutSockets stops the readiness loop, then closes every connection and
// the listener. The loop must stop before the raw fds close.
func (c *Comm) cutSockets() {
	if c.io != nil {
		c.io.stop()
	}
	for _, cs := range c.conns {
		if cs == nil {
			continue
		}
		cs.conn.Close()
		if cs.file != nil {
			cs.file.Close()
		}
	}
	if c.ln != nil {
		c.ln.Close()
	}
}

// ---- comm.FailStop implementation ----

// CrashesEnabled reports whether crash rules are armed anywhere in this
// world — every rank must agree so the FT collectives pick one path.
func (c *Comm) CrashesEnabled() bool { return c.cfg.crashArmed }

// ConfirmedDead returns a fresh detector-confirmed death mask.
func (c *Comm) ConfirmedDead() []bool { return c.crash.ConfirmedMask(c.size) }

// Commit fans a NoticeCommit out to every live rank. Counts as a send
// initiation, so a crash scheduled at the root's commit point fires here.
func (c *Comm) Commit(seq int, survivors []bool) {
	c.noteSend()
	frame := encodeCommit(seq, survivors)
	for r, cs := range c.conns {
		if cs == nil || c.crash.Down(r) {
			continue
		}
		c.sched.enqueue(r, outFrame{hdr: append([]byte(nil), frame...)})
	}
}
