package runtime

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"adapt/internal/comm"
	"adapt/internal/faults"
	"adapt/internal/progress"
	"adapt/internal/trace"
)

// Fault injection in the live runtime. The delivery path is the
// reliable-transmission model of the simulator's chaos transport with
// the simplifications a shared-address-space executor affords:
//
//   - Retries are resolved at send time: the sender walks the attempt
//     sequence (each drawing its own deterministic verdict), accumulates
//     the retransmit backoff of every dropped attempt into a wall-clock
//     delay, and delivers the first surviving copy after that delay. The
//     observable schedule — which attempt survives, how late it lands —
//     is identical to replaying the loss/retry exchange, without modeling
//     acks on live goroutines.
//   - Duplicates are real: a second copy (with its own payload buffer)
//     races the first through deliver, where per-transmission ids
//     deduplicate.
//   - A message whose every attempt drops is permanently lost. Rendezvous
//     sends then fail with a structured *faults.TimeoutError; eager sends
//     have already completed (buffer-reuse semantics), so the loss
//     surfaces at the stuck receiver — bound Run with WithRunTimeout to
//     turn that hang into a per-rank pending-operation dump.
//
// The injector's verdicts depend only on message identity — (sender,
// receiver, tag, per-link sequence number) — so a fixed plan seed yields
// the same drops/dups/losses regardless of goroutine interleaving;
// wall-clock arrival order of near-simultaneous copies is the only
// nondeterminism, and dedup makes it invisible to receivers.

// WithFaults installs a fault plan and the ack/retry tuning used to
// recover from it (zero Recovery fields take defaults).
func WithFaults(p faults.Plan, rec faults.Recovery) Option {
	return func(w *World) {
		w.inj = faults.NewInjector(p)
		w.rec = rec.Normalized()
		// Crash rules are armed from the injector's plan once the rank
		// slice exists (NewWorld runs options before building ranks).
	}
}

// FaultStats returns what the injector did; zero when no plan installed.
func (w *World) FaultStats() faults.Stats { return w.inj.Stats() }

// Failures lists operations that exhausted their attempt budget.
func (w *World) Failures() []*faults.TimeoutError { return w.inj.Failures() }

// nextXid draws the id of c's next transmission to dst: a per-link
// sequence in the low half, the sender in the high half, so ids are
// unique at every receiver (the engine deduplicates by id) and — drawn
// in the sender's own program order — the injector's verdicts do not
// depend on how rank goroutines interleave.
func (c *Comm) nextXid(dst int) uint64 {
	return uint64(c.rank)<<32 | c.xids[dst].Add(1)
}

// chaosDeliver carries env from c to d under the fault plan. Runs on the
// sender's goroutine; delayed copies hop to timer goroutines.
func (c *Comm) chaosDeliver(d *Comm, env *progress.Env, size int) {
	env.Xid = c.nextXid(d.rank)
	if c.w.fec != nil && env.Rts == nil {
		// Eager segments route through the FEC framer (fec.go): a lost
		// first attempt waits for its group's parity before falling back
		// to the retry walk below.
		c.fecSend(d, env, size)
		return
	}
	c.chaosWalk(d, env, size, 0, 0)
}

// chaosWalk resolves the attempt sequence from startAttempt on, with
// wait already accumulated by earlier (consumed) attempts. A corrupt
// verdict is a detected loss — the damaged copy fails its checksum at
// the receiver — so it burns an attempt exactly like a drop.
func (c *Comm) chaosWalk(d *Comm, env *progress.Env, size int, startAttempt int, wait time.Duration) {
	w := c.w
	for attempt := startAttempt; attempt < w.rec.MaxAttempts; attempt++ {
		v := w.inj.Message(c.rank, d.rank, env.Tag, env.Xid, attempt, c.Now(), size)
		if v.Drop || v.Corrupt {
			c.traceFault(trace.FaultDrop, d.rank, env.Tag, size, env.Xid)
			wait += w.rec.RetryDelay(attempt, env.Xid)
			if attempt+1 < w.rec.MaxAttempts {
				w.inj.NoteRetry()
				c.traceFault(trace.FaultRetry, d.rank, env.Tag, size, env.Xid)
			}
			continue
		}
		if v.Dup {
			// The duplicate gets its own payload buffer (eager payloads are
			// pooled and freed independently) and trails the original.
			dup := *env
			if dup.Rts == nil && dup.Msg.Data != nil {
				buf := comm.GetBuf(len(dup.Msg.Data))
				copy(buf, dup.Msg.Data)
				dup.Msg.Data = buf
			}
			deliverAfter(d, &dup, wait+v.Extra+w.rec.RTO/2)
		}
		deliverAfter(d, env, wait+v.Extra)
		return
	}
	// Every attempt dropped: the message is lost for good.
	c.traceFault(trace.FaultTimeout, d.rank, env.Tag, size, env.Xid)
	err := &faults.TimeoutError{
		Rank: c.rank, Peer: d.rank, Tag: env.Tag,
		Attempts: w.rec.MaxAttempts, Elapsed: wait,
	}
	w.inj.Fail(err)
	if env.Rts != nil {
		env.Rts.Complete(comm.Status{Source: c.rank, Tag: env.Tag, Err: err})
		return
	}
	if env.Msg.Data != nil {
		comm.PutBuf(env.Msg.Data) // the receiver will never own this copy
	}
}

// traceFault records one fault-path event; no-op when tracing is off.
func (c *Comm) traceFault(kind trace.Kind, peer int, tag comm.Tag, size int, xid uint64) {
	if tb := c.w.Trace; tb != nil {
		tb.Add(trace.Record{At: c.Now(), Rank: c.rank, Kind: kind,
			Peer: peer, Tag: tag, Size: size, Xid: xid})
	}
}

// deliverAfter lands env on d now or after a wall-clock delay.
func deliverAfter(d *Comm, env *progress.Env, delay time.Duration) {
	if delay <= 0 {
		d.deliver(env)
		return
	}
	time.AfterFunc(delay, func() { d.deliver(env) })
}

// suppress discards a duplicate delivery that lost the dedup race.
func (c *Comm) suppress(env *progress.Env) {
	c.w.inj.NoteSuppressed()
	if env.Rts == nil && env.Msg.Data != nil {
		comm.PutBuf(env.Msg.Data)
	}
}

// pendingDump renders every rank's in-flight state for the Run watchdog:
// operation counts, posted receives, and parked unexpected messages —
// enough to see which edge of which collective lost what.
func (w *World) pendingDump() string {
	var sb strings.Builder
	for _, c := range w.ranks {
		pending, posted, unexpected := c.Snapshot()
		fmt.Fprintf(&sb, "  rank %d: %d ops in flight", c.rank, pending)
		for _, req := range posted {
			src := "any"
			if req.Src != comm.AnySource {
				src = fmt.Sprintf("%d", req.Src)
			}
			fmt.Fprintf(&sb, "; posted recv src=%s tag=%s", src, req.Tag)
		}
		for _, env := range unexpected {
			kind := "eager"
			if env.Rts != nil {
				kind = "rts"
			}
			fmt.Fprintf(&sb, "; unexpected %s from %d tag=%s", kind, env.Src, env.Tag)
		}
		sb.WriteByte('\n')
	}
	// Failures are recorded in completion order, which varies run to run
	// on live goroutines; sort their rendered forms so the dump is
	// deterministic for a given set of losses.
	lost := make([]string, 0)
	for _, f := range w.Failures() {
		lost = append(lost, f.Error())
	}
	sort.Strings(lost)
	for _, l := range lost {
		fmt.Fprintf(&sb, "  lost: %v\n", l)
	}
	return sb.String()
}
