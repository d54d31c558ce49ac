package runtime

import (
	goruntime "runtime"

	"adapt/internal/comm"
	"adapt/internal/faults"
	"adapt/internal/progress"
	"adapt/internal/trace"
)

// Fail-stop crash model on the live substrate. The crash schedule and
// the world-level lease detector are the shared fail-stop plane
// (faults.Plane), timed by wall-clock timers; this file keeps the kill
// mechanics:
//
//   - The dying rank sweeps its unexpected queue (live rendezvous
//     senders parked there fail with a TimeoutError instead of hanging)
//     and exits its goroutine via runtime.Goexit — its deferred Run
//     bookkeeping still runs, so Run returns normally when the survivors
//     finish.
//   - deliver() refuses traffic addressed to a halted rank (rendezvous
//     announcements fail the sender, eager payloads are swallowed) and
//     annihilates in-flight copies from a dead sender.
//   - Confirmation fans death notices out to every surviving rank's
//     control-plane queue.

// armCrashes builds the crash schedule and detector from the installed
// plan (called at the end of NewWorld; options run before the rank
// slice is built).
func (w *World) armCrashes() {
	if w.inj != nil && len(w.inj.Plan().Crashes) > 0 {
		w.crash = faults.NewPlane(w.Size(), -1, w.inj.Plan().Crashes, w.rec, faults.WallClock(w.start),
			func() *trace.Buffer { return w.Trace }, w.noticeDeath)
	}
}

// DetectorStats returns the detector counters; zero when no crash rules
// are armed.
func (w *World) DetectorStats() faults.DetectorStats { return w.crash.Stats() }

// Crashed returns the per-rank death mask.
func (w *World) Crashed() []bool { return w.crash.DeadMask(w.Size()) }

// noteSend counts one send initiation by c; at the rank's crash point it
// halts the rank and exits the calling goroutine (Goexit runs the Run
// deferrals, so the world keeps going without it).
func (w *World) noteSend(c *Comm) {
	if !w.crash.NoteSend(c.rank) {
		return
	}
	if tb := w.Trace; tb != nil {
		tb.Add(trace.Record{At: c.Now(), Rank: c.rank, Kind: trace.Crash, Peer: -1})
	}
	// Tear down the matching engine and release live senders parked in
	// the unexpected queue.
	_, unexpected := c.Halt()
	for _, env := range unexpected {
		c.refuse(env)
	}
	w.crash.Lost(c.rank)
	goruntime.Goexit()
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

// refuse handles traffic addressed to a halted rank: a rendezvous
// announcement fails its (live) sender with the same structured error an
// exhausted retry chain produces; an eager payload is swallowed.
func (c *Comm) refuse(env *progress.Env) {
	if env.Rts != nil {
		err := &faults.TimeoutError{Rank: env.Src, Peer: c.rank, Tag: env.Tag, Attempts: 1}
		c.w.inj.Fail(err) // crash rules arm only with a fault plan
		env.Rts.Complete(comm.Status{Source: env.Src, Tag: env.Tag, Err: err})
		return
	}
	if env.Msg.Data != nil {
		comm.PutBuf(env.Msg.Data)
	}
}

// ---- comm.FailStop implementation ----

var _ comm.FailStop = (*Comm)(nil)

// CrashesEnabled reports whether crash rules are armed in this world.
func (c *Comm) CrashesEnabled() bool { return c.w.crash != nil }

// ConfirmedDead returns a fresh detector-confirmed death mask.
func (c *Comm) ConfirmedDead() []bool { return c.w.crash.ConfirmedMask(c.Size()) }

// Commit fans a NoticeCommit out to every live rank. Counts as a send
// initiation, so a crash scheduled at the root's commit point fires here.
func (c *Comm) Commit(seq int, survivors []bool) {
	w := c.w
	w.noteSend(c)
	mask := append([]bool(nil), survivors...)
	for _, d := range w.ranks {
		if d != c && !w.crash.Dead(d.rank) {
			d.PushNotice(comm.Notice{Kind: comm.NoticeCommit, Seq: seq, Survivors: mask})
		}
	}
}
