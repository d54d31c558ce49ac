package simmpi

import (
	"adapt/internal/comm"
	"adapt/internal/pool"
	"adapt/internal/progress"
)

const p2pKind = "simmpi.p2p"

// p2p carries one fault-free point-to-point message through the
// simulated protocol. A record serves one leg at a time and recycles
// through the World's free-list once its terminal handlers have fired,
// each of which holds one reference:
//
//	launch   a send lagged behind a flat rank's busy clock; fires launch
//	eager    payload in flight to the receiver; fires sent and arrive
//	RTS      rendezvous announcement in flight; fires announce
//	delivery a matched message landing in the receive buffer: for a
//	         rendezvous grant → transfer (sent) → land → done, for an
//	         eager payload land → done
//
// The handlers are method values bound once per record, so a steady
// stream of messages schedules events without allocating closures. Each
// handler copies what it needs before releasing the record, because the
// call it then makes may draw the same record for the next leg. The
// request fields each hold one substrate reference (progress.Req): a
// handler that hands a request on to the next leg moves the reference
// with it, and the record's retirement releases the rest — after the
// final Complete, which schedules events but draws no record.
type p2p struct {
	w        *World
	src, dst int
	tag      comm.Tag
	msg      comm.Msg      // the message as the sender posted it
	data     []byte        // the receiver's copy: pooled, or in the posted buffer (nil when elided)
	err      error         // the receive's truncation error (delivery leg)
	send     *progress.Req // the sender's request
	recv     *progress.Req // the matched receive (delivery leg)
	ref      pool.Ref      // terminal handlers still to fire

	launchFn, sentFn, arriveFn, announceFn, grantFn, landFn, doneFn func()
}

// newP2PList builds the World's p2p free-list.
func newP2PList(w *World) pool.List[p2p] {
	return pool.List[p2p]{
		New: func() *p2p {
			x := &p2p{w: w}
			x.launchFn, x.sentFn, x.arriveFn = x.launch, x.sent, x.arrive
			x.announceFn, x.grantFn, x.landFn, x.doneFn = x.announce, x.grant, x.land, x.done
			return x
		},
		Reset: func(x *p2p) { x.msg, x.data, x.err, x.send, x.recv = comm.Msg{}, nil, nil, nil, nil },
	}
}

// newP2P draws a record for one leg of a src→dst message, held by the
// given number of terminal handlers. The caller sets the requests and
// data its leg needs.
func (w *World) newP2P(src, dst int, tag comm.Tag, msg comm.Msg, handlers int32) *p2p {
	x := w.p2ps.Get()
	x.src, x.dst, x.tag, x.msg = src, dst, tag, msg
	x.ref.Init(handlers)
	return x
}

// finish retires one terminal handler; the last returns the record to
// the free-list.
func (x *p2p) finish() {
	if !x.ref.Release(p2pKind) {
		return
	}
	if x.send != nil {
		x.send.Release()
	}
	if x.recv != nil {
		x.recv.Release()
	}
	x.w.p2ps.Put(x)
}

// launch runs a lagged send's protocol at the rank's issue time.
func (x *p2p) launch() {
	x.ref.Live(p2pKind)
	c, req, dst, tag, msg := x.w.ranks[x.src], x.send, x.dst, x.tag, x.msg
	x.send = nil // its reference moves on with the launch
	x.finish()
	c.launchSend(req, dst, tag, msg)
}

// sent completes the sender's request: the first hop ended, so its
// buffer is reusable.
func (x *p2p) sent() {
	x.ref.Live(p2pKind)
	x.send.Complete(comm.Status{Source: x.src, Tag: x.tag, Msg: x.msg})
	x.finish()
}

// arrive hands an eager payload, now at the receiver's host boundary,
// to the receiver's matching engine.
func (x *p2p) arrive() {
	x.ref.Live(p2pKind)
	d, src, tag, msg, post := x.w.ranks[x.dst], x.src, x.tag, x.msg, x.send.PostID
	msg.Data = x.data
	x.finish()
	env := d.NewEnv(src, tag, msg, nil)
	env.PostID = post
	d.arrive(env)
}

// announce hands a rendezvous RTS to the receiver's matching engine.
func (x *p2p) announce() {
	x.ref.Live(p2pKind)
	d, send := x.w.ranks[x.dst], x.send
	env := d.NewEnv(x.src, x.tag, x.msg, send)
	env.PostID = send.PostID
	x.send = nil // its reference moves into env.Rts
	x.finish()
	d.arrive(env)
}

// grant runs when the CTS reaches the sender: the data flies. The sender
// keeps its buffer until its request completes; the transfer copies it
// at start time, into the receive's posted buffer or a pooled,
// receiver-owned copy. An elided payload has nothing to copy, so the
// receive is not looked at until done.
func (x *p2p) grant() {
	x.ref.Live(p2pKind)
	if x.msg.Data != nil {
		if x.data, x.err = x.recv.Dest(x.src, x.tag, x.msg); x.data != nil {
			copy(x.data, x.msg.Data)
		}
	}
	x.w.Net.StartTransfer(x.src, x.dst, x.msg.Size, x.msg.Space, x.sentFn, x.landFn)
}

// land moves a payload at the receiver's host boundary into the receive
// buffer's memory space.
func (x *p2p) land() {
	x.ref.Live(p2pKind)
	x.w.Net.DeliverFrom(x.src, x.dst, x.msg.Size, x.recv.Space, x.doneFn)
}

// done completes the receive. A rendezvous payload already sits in its
// destination; an eager one is the receiver-owned pooled copy, which
// lands in the posted buffer now. An elided payload is only checked
// against the posted buffer's length.
func (x *p2p) done() {
	x.ref.Live(p2pKind)
	msg, err := x.msg, x.err
	msg.Data = x.data
	if x.send == nil || x.msg.Data == nil {
		msg, err = x.recv.Land(x.src, x.tag, msg)
	}
	x.recv.Complete(comm.Status{Source: x.src, Tag: x.tag, Msg: msg, Err: err})
	x.finish()
}
