package simmpi

import (
	"adapt/internal/comm"
	"adapt/internal/progress"
)

// p2p carries one fault-free point-to-point message through the
// simulated protocol. A record serves one leg at a time and recycles
// through the World's free-list once its terminal handlers have fired:
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
// call it then makes may draw the same record for the next leg.
type p2p struct {
	w        *World
	src, dst int
	tag      comm.Tag
	msg      comm.Msg      // the message as the sender posted it
	data     []byte        // the receiver-owned pooled copy (nil when elided)
	send     *progress.Req // the sender's request
	recv     *progress.Req // the matched receive (delivery leg)
	pending  int           // terminal handlers still to fire

	launchFn, sentFn, arriveFn, announceFn, grantFn, landFn, doneFn func()
}

// newP2P draws a record for one leg of a src→dst message. The caller
// sets the requests, data and pending count its leg needs.
func (w *World) newP2P(src, dst int, tag comm.Tag, msg comm.Msg) *p2p {
	var x *p2p
	if n := len(w.p2pFree); n > 0 {
		x = w.p2pFree[n-1]
		w.p2pFree = w.p2pFree[:n-1]
	} else {
		x = &p2p{w: w}
		x.launchFn, x.sentFn, x.arriveFn = x.launch, x.sent, x.arrive
		x.announceFn, x.grantFn, x.landFn, x.doneFn = x.announce, x.grant, x.land, x.done
	}
	x.src, x.dst, x.tag, x.msg = src, dst, tag, msg
	return x
}

// finish retires one terminal handler; the last returns the record to
// the free-list.
func (x *p2p) finish() {
	if x.pending--; x.pending > 0 {
		return
	}
	x.msg, x.data, x.send, x.recv = comm.Msg{}, nil, nil, nil
	x.w.p2pFree = append(x.w.p2pFree, x)
}

// launch runs a lagged send's protocol at the rank's issue time.
func (x *p2p) launch() {
	c, req, dst, tag, msg := x.w.ranks[x.src], x.send, x.dst, x.tag, x.msg
	x.finish()
	c.launchSend(req, dst, tag, msg)
}

// sent completes the sender's request: the first hop ended, so its
// buffer is reusable.
func (x *p2p) sent() {
	req, st := x.send, comm.Status{Source: x.src, Tag: x.tag, Msg: x.msg}
	x.finish()
	req.Complete(st)
}

// arrive hands an eager payload, now at the receiver's host boundary,
// to the receiver's matching engine.
func (x *p2p) arrive() {
	d, src, tag, msg, post := x.w.ranks[x.dst], x.src, x.tag, x.msg, x.send.PostID
	msg.Data = x.data
	x.finish()
	env := d.NewEnv(src, tag, msg, nil)
	env.PostID = post
	d.arrive(env)
}

// announce hands a rendezvous RTS to the receiver's matching engine.
func (x *p2p) announce() {
	d, send := x.w.ranks[x.dst], x.send
	env := d.NewEnv(x.src, x.tag, x.msg, send)
	env.PostID = send.PostID
	x.finish()
	d.arrive(env)
}

// grant runs when the CTS reaches the sender: the data flies. The sender
// keeps its buffer until its request completes; the transfer snapshots
// it into a pooled, receiver-owned copy at start time.
func (x *p2p) grant() {
	if x.msg.Data != nil {
		x.data = comm.GetBuf(len(x.msg.Data))
		copy(x.data, x.msg.Data)
	}
	x.w.Net.StartTransfer(x.src, x.dst, x.msg.Size, x.msg.Space, x.sentFn, x.landFn)
}

// land moves a payload at the receiver's host boundary into the receive
// buffer's memory space.
func (x *p2p) land() {
	x.w.Net.DeliverFrom(x.src, x.dst, x.msg.Size, x.recv.Space, x.doneFn)
}

// done completes the receive with the receiver-owned payload.
func (x *p2p) done() {
	req, msg := x.recv, x.msg
	msg.Data = x.data
	st := comm.Status{Source: x.src, Tag: x.tag, Msg: msg}
	x.finish()
	req.Complete(st)
}
