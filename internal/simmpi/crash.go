package simmpi

import (
	goruntime "runtime"

	"adapt/internal/comm"
	"adapt/internal/faults"
	"adapt/internal/progress"
	"adapt/internal/trace"
)

// Fail-stop crash model on the simulated substrate.
//
// A crash@rank[:afterK] rule kills the rank at the instant it initiates
// its (K+1)-th send (Isend, Ssend, or a Commit fan-out). The kill is a
// Halt of the rank's engine: its posted receives die, no further
// callback or notice fires, and its unexpected queue is swept so live
// rendezvous senders parked there fail with a TimeoutError instead of
// hanging. The triggering send and every later one are dropped, so the
// rank schedules no further kernel events: a flat rank simply never runs
// again, and a proc-mode rank leaves its goroutine (runtime.Goexit) at
// its next blocking point. From that instant the rank's traffic is
// annihilated — copies in flight from it vanish at arrival, copies sent
// to it are swallowed (no delivery, no ack), so their senders' retry
// chains run into the timeout budget or, once the death is confirmed,
// fail fast.
//
// The schedule and the world-level lease detector are the shared
// fail-stop plane (faults.Plane); the detector's leases ride the
// deterministic kernel, so the same seed reproduces the same detection
// schedule at any -j. Confirmation pushes a NoticeDeath to every
// surviving rank's engine.

// DetectorStats returns the detector counters; zero when no crash rules
// are armed (clean runs must keep them zero).
func (w *World) DetectorStats() faults.DetectorStats { return w.crash.Stats() }

// Crashed returns the per-rank death mask (all false when no crash rules
// are armed or nothing has died yet).
func (w *World) Crashed() []bool { return w.crash.DeadMask(w.Size()) }

// armCrashes installs the plan's crash schedule and the world-level
// detector, whose leases are kernel events (InstallFaults).
func (w *World) armCrashes(p faults.Plan) {
	if len(p.Crashes) > 0 {
		w.crash = faults.NewPlane(w.Size(), -1, p.Crashes, w.rec, faults.Clock{After: w.K.Schedule, Now: w.K.Now},
			func() *trace.Buffer { return w.Trace }, w.noticeDeath)
	}
}

// noteSend counts one send initiation by c and reports whether the rank
// is dead, in which case the caller drops the send. At the rank's crash
// point the rank is halted. A flat rank whose busy clock runs ahead of
// virtual time would have issued the send only at that clock (proc mode
// sleeps through its compute first), so its crash lands there: it fires
// no callback from now on, and the halt follows at the lagged instant.
// Must be the first action of every send path.
func (w *World) noteSend(c *Comm) bool {
	if w.crash == nil || c.dead {
		return c.dead
	}
	if lag := c.sendLag(); lag > 0 && w.crash.Doomed(c.rank) {
		c.dead = true
		w.K.Schedule(lag, func() {
			w.crash.NoteSend(c.rank)
			w.crashRank(c)
		})
		return true
	}
	if w.crash.NoteSend(c.rank) {
		c.dead = true
		w.crashRank(c)
		return true
	}
	return false
}

// crashRank halts c now: annihilation begins, parked rendezvous senders
// are released with a structured failure, and the detector leases are
// armed.
func (w *World) crashRank(c *Comm) {
	if tb := w.Trace; tb != nil {
		tb.Add(trace.Record{At: w.K.Now(), Rank: c.rank, Kind: trace.Crash, Peer: -1})
	}
	// Halt the matching engine (posted receives die with the rank, queued
	// callbacks never fire, later arrivals are refused) and sweep the
	// unexpected queue: an RTS parked there belongs to a LIVE sender that
	// would otherwise wait forever for a grant.
	for _, env := range c.Halt() {
		c.refuse(env)
	}
	w.crash.Lost(c.rank)
}

// leave ends a crashed proc-mode rank at a blocking point: its goroutine
// exits and the proc retires. A flat rank has nothing to leave.
func (c *Comm) leave() {
	if !c.flat {
		goruntime.Goexit()
	}
}

// refuse handles traffic addressed to a halted rank: a rendezvous
// announcement fails its live sender with the same structured error an
// exhausted retry chain produces; an eager payload is swallowed.
func (c *Comm) refuse(env *progress.Env) {
	if env.Rts != nil {
		err := &faults.TimeoutError{Rank: env.Src, Peer: c.rank, Tag: env.Tag, Attempts: 1}
		c.w.inj.Fail(err) // crash rules arm only with a fault plan
		env.Rts.CompleteIfLive(comm.Status{Source: env.Src, Tag: env.Tag, Err: err})
		env.Rts.Release()
	} else if env.Msg.Data != nil {
		comm.PutBuf(env.Msg.Data)
	}
}

// noticeDeath is the detector's confirm action: every surviving rank
// gets a NoticeDeath.
func (w *World) noticeDeath(r int) {
	for _, d := range w.ranks {
		if !w.crash.Dead(d.rank) {
			d.PushNotice(comm.Notice{Kind: comm.NoticeDeath, Rank: r})
		}
	}
}

// ---- comm.FailStop implementation ----

var _ comm.FailStop = (*Comm)(nil)

// CrashesEnabled reports whether crash rules are armed in this world.
func (c *Comm) CrashesEnabled() bool { return c.w.crash != nil }

// ConfirmedDead returns a fresh detector-confirmed death mask.
func (c *Comm) ConfirmedDead() []bool { return c.w.crash.ConfirmedMask(c.Size()) }

// Commit fans a NoticeCommit for (seq, survivors) out to every live rank
// over the control plane. The fan-out counts as a send initiation, so a
// crash scheduled at the root's commit point fires here.
func (c *Comm) Commit(seq int, survivors []bool) {
	w := c.w
	if w.noteSend(c) {
		c.leave() // a root that dies committing must not finish
		return
	}
	mask := append([]bool(nil), survivors...)
	for _, d := range w.ranks {
		if d == c || w.crash.Dead(d.rank) {
			continue
		}
		d := d
		// A flat rank's fan-out leaves at its busy clock, like its sends.
		w.K.Schedule(c.sendLag()+w.Net.ControlLatency(c.rank, d.rank), func() {
			if !w.crash.Dead(d.rank) {
				d.PushNotice(comm.Notice{Kind: comm.NoticeCommit, Seq: seq, Survivors: mask})
			}
		})
	}
}
