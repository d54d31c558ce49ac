package simmpi

import (
	"adapt/internal/comm"
	"adapt/internal/faults"
	"adapt/internal/progress"
	"adapt/internal/sim"
	"adapt/internal/trace"
)

// Fail-stop crash model on the simulated substrate.
//
// A crash@rank[:afterK] rule kills the rank at the instant it initiates
// its (K+1)-th send (Isend, Ssend, or a Commit fan-out): the proc
// unwinds via sim.ErrKilled and retires, its unexpected queue is swept
// so live rendezvous senders parked there fail with a TimeoutError
// instead of hanging, and from that instant the rank's traffic is
// annihilated — copies in flight from it vanish at arrival, copies sent
// to it are swallowed (no delivery, no ack), so their senders' retry
// chains run into the timeout budget or, once the death is confirmed,
// fail fast.
//
// The schedule and the world-level lease detector are the shared
// fail-stop plane (faults.Plane); the detector's leases ride the
// deterministic kernel, so the same seed reproduces the same detection
// schedule at any -j. Confirmation fans a NoticeDeath out to every
// surviving rank's control-plane queue.

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

// noteSend counts one send initiation by c and, when the rank's crash
// point is reached, kills it: the rank's state is torn down and the
// calling goroutine unwinds with sim.ErrKilled (recovered by the proc
// wrapper). Must be the first action of every send path.
func (w *World) noteSend(c *Comm) {
	if w.crash.NoteSend(c.rank) {
		w.crashRank(c.rank)
		panic(sim.ErrKilled)
	}
}

// crashRank halts rank r now: annihilation begins, parked rendezvous
// senders are released with a structured failure, and the detector
// leases are armed.
func (w *World) crashRank(r int) {
	c := w.ranks[r]
	if tb := w.Trace; tb != nil {
		tb.Add(trace.Record{At: w.K.Now(), Rank: r, Kind: trace.Crash, Peer: -1})
	}
	// Halt the matching engine (posted receives die with the rank, queued
	// callbacks never fire, later arrivals are refused) and sweep the
	// unexpected queue: an RTS parked there belongs to a LIVE sender that
	// would otherwise wait forever for a grant.
	_, unexpected := c.Halt()
	for _, env := range unexpected {
		c.refuse(env)
	}
	w.crash.Lost(r)
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
// gets a NoticeDeath on its control-plane queue.
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
	w.noteSend(c)
	mask := append([]bool(nil), survivors...)
	for _, d := range w.ranks {
		if d == c || w.crash.Dead(d.rank) {
			continue
		}
		d := d
		w.K.Schedule(w.Net.ControlLatency(c.rank, d.rank), func() {
			if !w.crash.Dead(d.rank) {
				d.PushNotice(comm.Notice{Kind: comm.NoticeCommit, Seq: seq, Survivors: mask})
			}
		})
	}
}
