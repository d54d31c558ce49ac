package simmpi

import (
	"time"

	"adapt/internal/comm"
	"adapt/internal/faults"
	"adapt/internal/fec"
	"adapt/internal/pool"
	"adapt/internal/progress"
	"adapt/internal/trace"
)

const xmitKind = "simmpi.xmit"

// This file is the chaos transport: the delivery paths used when a fault
// plan is installed on the world (World.InstallFaults). Every logical
// point-to-point unit — eager payload, rendezvous RTS, CTS grant, bulk
// data — becomes a reliably-transmitted message: each attempt draws a
// Verdict from the injector (drop / duplicate / corrupt / extra delay),
// arrivals are acknowledged, duplicates are suppressed by message
// identity, and an unacknowledged sender retransmits with exponential
// backoff until the Recovery policy's attempt budget runs out, at which
// point the operation completes with a structured *faults.TimeoutError.
//
// With no plan installed none of this code runs and the fault-free
// protocol engine in simmpi.go and p2p.go is byte-for-byte unchanged.
//
// Modeling note: the simulator is one address space, so "acks" are
// events, not payloads. Every leg models the full ack cycle — including
// ack loss on the reverse link, which causes spurious retransmission
// that the receiver's dedup absorbs. Failure detection is therefore
// realistic: a sender can time out even though its message was
// delivered, exactly the ambiguity a real transport faces.
//
// One reliable transmission is one pooled xmit record, drawn from the
// World's free-list. The record holds the whole state machine inline:
// the attempt counter, the delivered/acked/failed/firstLost flags, the
// eager payload snapshot and the request to complete, and its FEC group
// membership (the record is the group member). Its leg kind selects what
// delivery, acknowledgement and failure do. The retry and ack handlers
// are method values bound once per record (the data leg's landing
// handler on its first use as a data leg), and each wire copy in flight
// is a small pooled wire record (shared with parity shards, see fec.go),
// so a steady lossy stream schedules its events without allocating.
//
// Lifetime rule: a record returns to its free-list only once no
// scheduled event can still reach it. Each of these holds one reference:
// the initiating call, each copy in flight, each ack in flight, the
// armed retry timer, the data leg's final landing, and membership in an
// unresolved FEC group. The retry timer stays armed until it fires even
// after an ack, so a record lives for at least one RTO. The record's req
// and sender fields each hold a substrate reference to their request
// (progress.Req) until the record retires, so a late CompleteIfLive —
// say a crash's refusal racing the RTS leg's timeout — never reaches a
// recycled request.

// xmitLeg names which protocol leg a reliable transmission carries.
type xmitLeg uint8

const (
	legEager xmitLeg = iota // eager payload; completes the send on ack
	legRTS                  // rendezvous announcement
	legCTS                  // rendezvous grant, receiver → sender
	legData                 // rendezvous bulk data; completes both ends
)

// xmit is one reliable transmission src→dst.
type xmit struct {
	w        *World
	leg      xmitLeg
	src, dst int
	tag      comm.Tag
	id       uint64
	size     int           // bytes on the wire (0 for control legs)
	start    time.Duration // when the first attempt left
	attempts int
	ref      pool.Ref

	delivered, acked, failed bool
	// firstLost records whether attempt 0 drew a drop or corrupt verdict
	// — i.e. whether the first copy will never deliver. Known as soon as
	// the first attempt has drawn its verdict.
	firstLost bool

	msg    comm.Msg      // the message as the sender posted it
	data   []byte        // eager: the snapshot feeding every attempt; data leg: the receiver's copy
	err    error         // data leg: the receive's truncation error
	req    *progress.Req // eager and RTS: the send; CTS and data: the matched receive
	sender *progress.Req // CTS and data: the rendezvous sender's request
	group  *fec.Group[*xmit]

	retryFn, ackFn, placedFn func()
}

// newXmitList builds the World's xmit free-list.
func newXmitList(w *World) pool.List[xmit] {
	return pool.List[xmit]{
		New: func() *xmit {
			x := &xmit{w: w}
			x.retryFn, x.ackFn = x.retry, x.ack
			return x
		},
		Reset: func(x *xmit) {
			x.attempts, x.delivered, x.acked, x.failed, x.firstLost = 0, false, false, false, false
			x.msg, x.data, x.err, x.req, x.sender, x.group = comm.Msg{}, nil, nil, nil, nil, nil
		},
	}
}

// newXmit draws a record for one reliable transmission, numbers it and
// takes the initiating call's reference.
func (w *World) newXmit(leg xmitLeg, src, dst int, tag comm.Tag, size int, msg comm.Msg) *xmit {
	x := w.xmits.Get()
	w.xmitSeq++
	x.leg, x.src, x.dst, x.tag, x.id, x.size, x.msg = leg, src, dst, tag, w.xmitSeq, size, msg
	x.start = w.K.Now()
	x.ref.Init(1)
	return x
}

// release drops one reference; the last returns the record (and an
// eager snapshot it still holds) to the free-list.
func (x *xmit) release() {
	if !x.ref.Release(xmitKind) {
		return
	}
	if x.data != nil {
		comm.PutBuf(x.data)
	}
	if x.req != nil {
		x.req.Release()
	}
	if x.sender != nil {
		x.sender.Release()
	}
	x.w.xmits.Put(x)
}

// try sends one attempt: draw its verdict, put its copies on the wire
// and arm the retry timer.
func (x *xmit) try() {
	w := x.w
	if w.crash.Dead(x.src) {
		// The sender crashed: its retry chain is abandoned silently
		// (fail-stop teardown, nobody is waiting on this request).
		return
	}
	attempt := x.attempts
	x.attempts++
	v := w.inj.Message(x.src, x.dst, x.tag, x.id, attempt, w.K.Now(), x.size)
	if v.Drop {
		w.traceFault(trace.FaultDrop, x.src, x.dst, x.tag, x.size, x.id)
	}
	if attempt == 0 {
		x.firstLost = v.Drop || v.Corrupt
	}
	if !v.Drop {
		x.fly(attempt, v.Extra, v.Corrupt)
		if v.Dup {
			// The duplicate trails the original by its own jitter draw.
			x.fly(attempt, v.Extra+w.Net.ControlLatency(x.src, x.dst), false)
		}
	}
	x.ref.Retain()
	w.K.Schedule(w.rec.RetryDelay(attempt, x.id), x.retryFn)
}

// fly puts one copy of an attempt on the wire: payload legs cross the
// fabric after the verdict's extra delay, control legs arrive after the
// control latency plus the rendezvous overhead.
func (x *xmit) fly(attempt int, extra time.Duration, corrupt bool) {
	w := x.w
	cp := w.wires.Get()
	cp.x, cp.n, cp.corrupt = x, attempt, corrupt
	x.ref.Retain()
	switch x.leg {
	case legEager, legData:
		w.K.Schedule(extra, cp.startFn)
	default:
		w.K.Schedule(w.Net.ControlLatency(x.src, x.dst)+w.Net.P.RndvAlpha+extra, cp.arriveFn)
	}
}

// arrive handles a copy of attempt reaching dst.
func (x *xmit) arrive(attempt int, corrupt bool) {
	x.ref.Live(xmitKind)
	defer x.release()
	w := x.w
	if w.crash.Dead(x.src) || w.crash.Dead(x.dst) {
		// Annihilation: a copy in flight from or to a crashed rank
		// vanishes at arrival — no delivery, no ack. The sender (if
		// alive) keeps retrying into its timeout budget, exactly as with
		// a black-holed link.
		return
	}
	if corrupt {
		// The damaged copy reached the receiver but fails its checksum:
		// a detected loss — no delivery, no ack, the sender stays in its
		// retransmit cycle (or FEC repairs).
		return
	}
	if x.delivered {
		w.inj.NoteSuppressed()
	} else {
		x.delivered = true
		x.deliver()
	}
	// Acknowledge this arrival back toward the sender. A lost ack leaves
	// the sender retransmitting; dedup absorbs it.
	if !w.inj.AckDrop(x.dst, x.src, x.tag, x.id, attempt, w.K.Now()) {
		x.ackBack()
	}
}

// ackBack flies an acknowledgement back to the sender; the first to
// arrive stops the retransmit chain.
func (x *xmit) ackBack() {
	x.ref.Retain()
	x.w.K.Schedule(x.w.Net.ControlLatency(x.dst, x.src), x.ackFn)
}

// ack is an acknowledgement reaching the sender.
func (x *xmit) ack() {
	x.ref.Live(xmitKind)
	if !x.acked && !x.failed {
		x.acked = true
		if x.leg == legEager {
			// The snapshot is no longer needed: delivery happened.
			if x.data != nil {
				comm.PutBuf(x.data)
				x.data = nil
			}
			x.req.CompleteIfLive(comm.Status{Source: x.src, Tag: x.tag, Msg: x.msg})
		}
		// Other legs: the ack only stops retransmission; completion rides
		// the data.
	}
	x.release()
}

// retry is the retransmit timer.
func (x *xmit) retry() {
	x.ref.Live(xmitKind)
	defer x.release()
	w := x.w
	switch {
	case x.acked || x.failed:
	case w.crash.Dead(x.src):
		// Dead sender: abandoned, not failed.
	case x.attempts >= w.rec.MaxAttempts || w.crash.Confirmed(x.dst):
		// Out of attempts — or fast-fail: the detector confirmed the peer
		// dead, so further retries cannot succeed. Fail the operation now
		// with the attempts spent so far.
		x.failed = true
		err := &faults.TimeoutError{
			Rank: x.src, Peer: x.dst, Tag: x.tag,
			Attempts: x.attempts, Elapsed: w.K.Now() - x.start,
		}
		w.inj.Fail(err)
		w.traceFault(trace.FaultTimeout, x.src, x.dst, x.tag, x.size, x.id)
		x.fail(err)
	default:
		w.inj.NoteRetry()
		w.traceFault(trace.FaultRetry, x.src, x.dst, x.tag, x.size, x.id)
		x.try()
	}
}

// deliver runs once, on the first copy to reach dst.
func (x *xmit) deliver() {
	w := x.w
	d := w.ranks[x.dst]
	switch x.leg {
	case legEager:
		// The receiver gets its own pooled copy of the snapshot.
		del := x.msg
		del.Data = nil
		if x.data != nil {
			del.Data = comm.GetBuf(len(x.data))
			copy(del.Data, x.data)
		}
		env := d.NewEnv(x.src, x.tag, del, nil)
		env.PostID = x.req.PostID
		d.arrive(env)
		if x.group != nil {
			w.resolveFEC(x.group)
		}
	case legRTS:
		x.req.Retain() // for env.Rts
		env := d.NewEnv(x.src, x.tag, x.msg, x.req)
		env.PostID = x.req.PostID
		d.arrive(env)
	case legCTS:
		// CTS reached the sender: the data now crosses reliably.
		dx := w.newXmit(legData, x.dst, x.src, x.tag, x.msg.Size, x.msg)
		dx.req, dx.sender = x.req, x.sender
		dx.req.Retain()
		dx.sender.Retain()
		dx.try()
		dx.release()
	case legData:
		// The sender keeps its buffer until its request completes; copy
		// the payload first, into the receive's posted buffer or a pooled,
		// receiver-owned copy.
		if x.data, x.err = x.req.Dest(x.src, x.tag, x.msg); x.data != nil {
			copy(x.data, x.msg.Data)
		}
		x.sender.CompleteIfLive(comm.Status{Source: x.src, Tag: x.tag, Msg: x.msg})
		if x.placedFn == nil {
			x.placedFn = x.placed // bound on the record's first data leg
		}
		x.ref.Retain()
		w.Net.DeliverFrom(x.src, x.dst, x.msg.Size, x.req.Space, x.placedFn)
	}
}

// placed completes a rendezvous receive once the data is in its buffer.
// The completion comes first: the record's reference is what keeps the
// request from being recycled under a late CompleteIfLive.
func (x *xmit) placed() {
	x.ref.Live(xmitKind)
	msg := x.msg
	msg.Data, x.data = x.data, nil
	x.req.CompleteIfLive(comm.Status{Source: x.src, Tag: x.tag, Msg: msg, Err: x.err})
	x.release()
}

// fail completes the leg's requests with err once every attempt went
// unacknowledged (or the peer was confirmed dead).
func (x *xmit) fail(err *faults.TimeoutError) {
	switch x.leg {
	case legEager, legRTS:
		x.req.CompleteIfLive(comm.Status{Source: x.src, Tag: x.tag, Msg: x.msg, Err: err})
	case legCTS:
		// A dead reverse link fails the receive.
		x.req.CompleteIfLive(comm.Status{Source: x.dst, Tag: x.tag, Err: err})
	case legData:
		// A dead forward link fails both ends.
		x.sender.CompleteIfLive(comm.Status{Source: x.src, Tag: x.tag, Msg: x.msg, Err: err})
		x.req.CompleteIfLive(comm.Status{Source: x.src, Tag: x.tag, Err: err})
	}
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
// snapshotted once into a buffer that feeds every (re)transmission; the
// receiver gets its own pooled copy on first arrival. The send completes
// on acknowledgement — not at first-hop end as in the fault-free engine
// — or with a TimeoutError. When FEC is armed the framer shadows the
// transmission with its own shard copy and, if the wire copy is lost
// but the group's parity survives, repairs it (see fec.go).
func (c *Comm) chaosEager(dst int, req *progress.Req, tag comm.Tag, msg comm.Msg) {
	w := c.w
	x := w.newXmit(legEager, c.rank, dst, tag, msg.Size, msg)
	x.req = req
	if msg.Data != nil {
		x.data = comm.GetBuf(len(msg.Data))
		copy(x.data, msg.Data)
	}
	framed := w.fec != nil && tag.Kind() != comm.KindFec
	var shard []byte
	if framed && x.data != nil {
		shard = comm.GetBuf(len(x.data))
		copy(shard, x.data)
	}
	x.try()
	if framed {
		x.ref.Retain() // the group's reference, dropped when it resolves
		w.fec.Add(c.rank, dst, x, shard)
	}
	x.release()
}

// chaosRendezvous announces a rendezvous send under a fault plan: the RTS
// control message is transmitted reliably; the data flies after the CTS
// (see chaosGrant). An undeliverable RTS fails the send request.
func (c *Comm) chaosRendezvous(dst int, req *progress.Req, tag comm.Tag, msg comm.Msg) {
	x := c.w.newXmit(legRTS, c.rank, dst, tag, 0, msg)
	x.req = req
	x.try()
	x.release()
}

// chaosGrant is the matched-rendezvous exchange under a fault plan: the
// CTS grant travels back reliably, then the bulk data crosses the fabric
// reliably; sender and receiver complete when the data lands.
func (c *Comm) chaosGrant(req *progress.Req, src int, tag comm.Tag, msg comm.Msg, sender *progress.Req) {
	x := c.w.newXmit(legCTS, c.rank, src, tag, 0, msg)
	x.req, x.sender = req, sender
	x.try()
	x.release()
}
