package simmpi

import (
	"time"

	"adapt/internal/comm"
	"adapt/internal/faults"
	"adapt/internal/progress"
	"adapt/internal/trace"
)

// This file is the chaos transport: the delivery paths used when a fault
// plan is installed on the world (World.InstallFaults). Every logical
// point-to-point unit — eager payload, rendezvous RTS, CTS grant, bulk
// data — becomes a reliably-transmitted message: each attempt draws a
// Verdict from the injector (drop / duplicate / extra delay), arrivals
// are acknowledged, duplicates are suppressed by message identity, and
// an unacknowledged sender retransmits with exponential backoff until
// the Recovery policy's attempt budget runs out, at which point the
// operation completes with a structured *faults.TimeoutError.
//
// With no plan installed none of this code runs and the fault-free
// protocol engine in simmpi.go is byte-for-byte unchanged.
//
// Modeling note: the simulator is one address space, so "acks" are
// events, not payloads. The eager and control paths model the full ack
// cycle — including ack loss on the reverse link, which causes spurious
// retransmission that the receiver's dedup absorbs. Failure detection is
// therefore realistic: a sender can time out even though its message was
// delivered, exactly the ambiguity a real transport faces.

// xmitState tracks one reliable transmission.
type xmitState struct {
	attempts  int
	delivered bool
	acked     bool
	failed    bool
}

// xmit is a handle on one reliable transmission: the FEC layer uses it
// to observe a message's fate (first-attempt loss, delivery, failure)
// and to complete it out-of-band when a parity reconstruction repairs a
// dropped copy (see fec.go).
type xmit struct {
	w        *World
	src, dst int
	tag      comm.Tag
	id       uint64
	st       *xmitState
	onAck    func()
	// firstLost records whether attempt 0 drew a drop or corrupt verdict
	// — i.e. whether the first copy will never deliver. Known as soon as
	// chaosSend returns (the first attempt draws its verdict inline).
	firstLost bool
}

// repair completes the transmission out-of-band: an erasure-coded group
// reconstructed the payload at the receiver, so the message is delivered
// (via deliver, unless a wire copy arrived first — dedup holds) and a
// repair-ack travels back to stop the retransmit chain. The repair-ack
// is group control traffic and is not subject to per-message ack-loss
// verdicts; the per-attempt ack path keeps its own loss draws.
func (x *xmit) repair(deliver func()) {
	if x.st.failed || x.w.crash.Dead(x.src) || x.w.crash.Dead(x.dst) {
		return
	}
	x.land(deliver)
	x.ackBack()
}

// land records one copy reaching the receiver: the first delivers, later
// ones are duplicates the receiver's dedup absorbs.
func (x *xmit) land(deliver func()) {
	if x.st.delivered {
		x.w.inj.NoteSuppressed()
		return
	}
	x.st.delivered = true
	deliver()
}

// ackBack flies an acknowledgement back to the sender; the first to
// arrive stops the retransmit chain.
func (x *xmit) ackBack() {
	x.w.K.Schedule(x.w.Net.ControlLatency(x.dst, x.src), func() {
		if x.st.acked || x.st.failed {
			return
		}
		x.st.acked = true
		if x.onAck != nil {
			x.onAck()
		}
	})
}

// chaosSend reliably moves one logical message from c to dst.
//
//	transmit(extra, arrive) models one attempt's transport cost and calls
//	                        arrive when that copy reaches dst (or never,
//	                        if the attempt was dropped upstream of it).
//	deliver                 runs exactly once, on the first arrival.
//	onAck                   runs once when the sender learns of delivery.
//	onFail                  runs once if every attempt goes unacknowledged.
//
// The returned handle lets the FEC layer repair the transmission; most
// callers discard it.
func (c *Comm) chaosSend(dst int, tag comm.Tag, size int,
	transmit func(extra time.Duration, arrive func()),
	deliver func(), onAck func(), onFail func(err *faults.TimeoutError)) *xmit {

	w := c.w
	w.xmitSeq++
	id := w.xmitSeq
	start := w.K.Now()
	st := &xmitState{}
	x := &xmit{w: w, src: c.rank, dst: dst, tag: tag, id: id, st: st, onAck: onAck}

	var try func()
	try = func() {
		if w.crash.Dead(c.rank) {
			// The sender crashed: its retry chain is abandoned silently
			// (fail-stop teardown, nobody is waiting on this request).
			return
		}
		attempt := st.attempts
		st.attempts++
		v := w.inj.Message(c.rank, dst, tag, id, attempt, w.K.Now(), size)
		if v.Drop {
			w.traceFault(trace.FaultDrop, c.rank, dst, tag, size, id)
		}
		if attempt == 0 {
			x.firstLost = v.Drop || v.Corrupt
		}
		send := func(extra time.Duration, corrupt bool) {
			transmit(extra, func() {
				if w.crash.Dead(c.rank) || w.crash.Dead(dst) {
					// Annihilation: a copy in flight from or to a crashed
					// rank vanishes at arrival — no delivery, no ack. The
					// sender (if alive) keeps retrying into its timeout
					// budget, exactly as with a black-holed link.
					return
				}
				if corrupt {
					// The damaged copy reached the receiver but fails its
					// checksum: a detected loss — no delivery, no ack, the
					// sender stays in its retransmit cycle (or FEC repairs).
					return
				}
				x.land(deliver)
				// Acknowledge this arrival back toward the sender. A lost
				// ack leaves the sender retransmitting; dedup absorbs it.
				if !w.inj.AckDrop(dst, c.rank, tag, id, attempt, w.K.Now()) {
					x.ackBack()
				}
			})
		}
		if !v.Drop {
			send(v.Extra, v.Corrupt)
			if v.Dup {
				// The duplicate trails the original by its own jitter draw.
				send(v.Extra+w.Net.ControlLatency(c.rank, dst), false)
			}
		}
		w.K.Schedule(w.rec.RetryDelay(attempt, id), func() {
			if st.acked || st.failed {
				return
			}
			if w.crash.Dead(c.rank) {
				return // dead sender: abandoned, not failed
			}
			// Out of attempts — or fast-fail: the detector confirmed the
			// peer dead, so further retries cannot succeed. Fail the
			// operation now with the attempts spent so far.
			if st.attempts >= w.rec.MaxAttempts || w.crash.Confirmed(dst) {
				st.failed = true
				err := &faults.TimeoutError{
					Rank: c.rank, Peer: dst, Tag: tag,
					Attempts: st.attempts, Elapsed: w.K.Now() - start,
				}
				w.inj.Fail(err)
				w.traceFault(trace.FaultTimeout, c.rank, dst, tag, size, id)
				if onFail != nil {
					onFail(err)
				}
				return
			}
			w.inj.NoteRetry()
			w.traceFault(trace.FaultRetry, c.rank, dst, tag, size, id)
			try()
		})
	}
	try()
	return x
}

// traceFault records one fault-path event (drop / retry / timeout) with
// the reliable-transmission id so a Perfetto view can group every attempt
// of the same logical message. No-op when tracing is off.
func (w *World) traceFault(kind trace.Kind, rank, peer int, tag comm.Tag, size int, xid uint64) {
	if tb := w.Trace; tb != nil {
		tb.Add(trace.Record{At: w.K.Now(), Rank: rank, Kind: kind,
			Peer: peer, Tag: tag, Size: size, Xid: xid})
	}
}

// chaosEager is the eager protocol under a fault plan. The payload is
// snapshotted once into a transmission buffer that feeds every
// (re)transmission; the receiver gets its own pooled copy on first
// arrival. The send completes on acknowledgement — not at first-hop end
// as in the fault-free engine — or with a TimeoutError.
func (c *Comm) chaosEager(d *Comm, req *progress.Req, tag comm.Tag, msg comm.Msg, st comm.Status) {
	send := msg
	var retained []byte
	if msg.Data != nil {
		retained = comm.GetBuf(len(msg.Data))
		copy(retained, msg.Data)
		send.Data = retained
	}
	release := func() {
		if retained != nil {
			comm.PutBuf(retained)
			retained = nil
		}
	}
	// When FEC is armed the framer shadows this transmission: it keeps its
	// own shard copy and, if the wire copy is lost but the group's parity
	// survives, re-delivers the reconstructed payload through mem.repair.
	var mem *fecMember
	var shard []byte
	if c.w.fec != nil && tag.Kind() != comm.KindFec {
		mem = &fecMember{tag: tag, msg: msg, d: d, post: req.PostID}
		if retained != nil {
			// The framer's own copy: retained is released the moment the
			// transmission acks.
			shard = comm.GetBuf(len(retained))
			copy(shard, retained)
		}
	}
	x := c.chaosSend(d.rank, tag, msg.Size,
		func(extra time.Duration, arrive func()) {
			c.w.K.Schedule(extra, func() {
				c.w.Net.StartTransfer(c.rank, d.rank, msg.Size, msg.Space, nil, arrive)
			})
		},
		func() {
			del := send
			if retained != nil {
				buf := comm.GetBuf(len(retained))
				copy(buf, retained)
				del.Data = buf
			}
			env := d.NewEnv(c.rank, tag, del, nil)
			env.PostID = req.PostID
			d.arrive(env)
			if mem != nil {
				mem.arrived()
			}
		},
		func() {
			release()
			req.CompleteIfLive(st)
		},
		func(err *faults.TimeoutError) {
			release()
			fst := st
			fst.Err = err
			req.CompleteIfLive(fst)
		})
	if mem != nil {
		mem.x = x
		c.w.fec.Add(c.rank, d.rank, mem, shard)
	}
}

// chaosRendezvous announces a rendezvous send under a fault plan: the RTS
// control message is transmitted reliably; the data flies after the CTS
// (see chaosGrant). An undeliverable RTS fails the send request.
func (c *Comm) chaosRendezvous(d *Comm, req *progress.Req, tag comm.Tag, msg comm.Msg) {
	env := d.NewEnv(c.rank, tag, msg, req)
	env.PostID = req.PostID
	rtsDelay := c.w.Net.ControlLatency(c.rank, d.rank) + c.w.Net.P.RndvAlpha
	c.chaosSend(d.rank, tag, 0,
		func(extra time.Duration, arrive func()) {
			c.w.K.Schedule(rtsDelay+extra, arrive)
		},
		func() { d.arrive(env) },
		nil, // the ack only stops retransmission; completion rides the data
		func(err *faults.TimeoutError) {
			req.CompleteIfLive(comm.Status{Source: c.rank, Tag: tag, Msg: msg, Err: err})
		})
}

// chaosGrant is the matched-rendezvous exchange under a fault plan: the
// CTS grant travels back reliably, then the bulk data crosses the fabric
// reliably; sender and receiver complete when the data lands. A dead
// reverse link fails the receive; a dead forward link fails both ends.
func (c *Comm) chaosGrant(req *progress.Req, src int, tag comm.Tag, msg comm.Msg, sender *progress.Req) {
	net := c.w.Net
	ctsDelay := net.ControlLatency(c.rank, src) + net.P.RndvAlpha
	sc := c.w.ranks[src]
	c.chaosSend(src, tag, 0,
		func(extra time.Duration, arrive func()) {
			c.w.K.Schedule(ctsDelay+extra, arrive)
		},
		func() {
			// CTS reached the sender: the data now crosses reliably.
			sc.chaosSend(c.rank, tag, msg.Size,
				func(extra time.Duration, arrive func()) {
					c.w.K.Schedule(extra, func() {
						net.StartTransfer(src, c.rank, msg.Size, msg.Space, nil, arrive)
					})
				},
				func() {
					// The sender keeps its buffer until its request completes;
					// snapshot into a pooled, receiver-owned copy first.
					recv := msg
					if msg.Data != nil {
						buf := comm.GetBuf(len(msg.Data))
						copy(buf, msg.Data)
						recv.Data = buf
					}
					sender.CompleteIfLive(comm.Status{Source: src, Tag: tag, Msg: msg})
					net.DeliverFrom(src, c.rank, msg.Size, req.Space, func() {
						req.CompleteIfLive(comm.Status{Source: src, Tag: tag, Msg: recv})
					})
				},
				nil,
				func(err *faults.TimeoutError) {
					sender.CompleteIfLive(comm.Status{Source: src, Tag: tag, Msg: msg, Err: err})
					req.CompleteIfLive(comm.Status{Source: src, Tag: tag, Err: err})
				})
		},
		nil,
		func(err *faults.TimeoutError) {
			req.CompleteIfLive(comm.Status{Source: src, Tag: tag, Err: err})
		})
}
