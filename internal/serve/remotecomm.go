package serve

import (
	"sync"
	"time"

	"adapt/internal/comm"
	"adapt/internal/progress"
)

// RemoteComm is the daemon-backed comm.Comm adapter: a rank-bound proxy
// session whose point-to-point operations ship to adaptd as cfIsend /
// cfIrecv frames, execute on the bound backend rank's executor, and
// complete back over sfOpDone notifications. Collectives built from
// comm.Comm primitives — the whole conformance grid — therefore run
// through the daemon unchanged.
//
// Matching happens in the daemon, so the local progress engine never
// sees an envelope: each remote operation is an anonymous engine
// request that the session reader completes, and the Wait family,
// OnComplete and Progress are the engine's. The engine is held in a
// named field rather than embedded so RemoteComm does not offer
// Probe/Iprobe/CancelRecv, which would act on a local queue that never
// matches anything.
//
// The usual single-goroutine owner discipline applies: all methods must
// be called from one goroutine; callbacks fire on it from inside
// Progress/Wait.
type RemoteComm struct {
	sess  *Session
	start time.Time
	eng   *progress.Engine

	mu     sync.Mutex
	ops    map[uint64]*progress.Req // in flight, by remote op id
	nextID uint64
	dead   error
}

func newRemoteComm(s *Session, rank, size int) *RemoteComm {
	c := &RemoteComm{sess: s, start: time.Now(), ops: map[uint64]*progress.Req{}}
	c.eng = progress.New(progress.Backend{Prefix: "serve", Rank: rank, Size: size, Now: c.Now})
	return c
}

// Rank returns the bound backend rank.
func (c *RemoteComm) Rank() int { return c.eng.Rank() }

// Size returns the backend world size.
func (c *RemoteComm) Size() int { return c.eng.Size() }

// complete lands one sfOpDone (or a typed op error) from the session
// reader goroutine.
func (c *RemoteComm) complete(id uint64, st comm.Status) {
	c.mu.Lock()
	r := c.ops[id]
	delete(c.ops, id)
	c.mu.Unlock()
	if r != nil {
		if st.Err != nil {
			st = c.failed(r, st.Err)
		}
		r.CompleteIfLive(st)
	}
}

// land completes a receive from its sfOpDone frame (session reader
// goroutine). The frame is recycled as soon as this returns, so the
// payload is copied out: into the receive's posted buffer (IrecvInto),
// or into a pooled copy the receiver owns and may PutBuf, as on every
// substrate.
func (c *RemoteComm) land(m opDoneMsg) {
	c.mu.Lock()
	r := c.ops[m.ID]
	delete(c.ops, m.ID)
	c.mu.Unlock()
	if r == nil {
		return
	}
	st := comm.Status{Source: m.Source, Tag: m.Tag, Msg: comm.Sized(m.Size)}
	if m.HasData {
		st.Msg.Data = m.Data
	}
	dst, err := r.Dest(m.Source, m.Tag, st.Msg)
	if dst == nil && err == nil && m.HasData {
		dst = []byte{} // empty but present, as sent
	}
	copy(dst, m.Data)
	st.Msg.Data, st.Err = dst, err
	r.CompleteIfLive(st)
}

// failed is the status a failed op completes with. Like every
// substrate's, it names the posted source (this rank for a send) and
// tag, which callbacks bound once per collective decode.
func (c *RemoteComm) failed(r *progress.Req, err error) comm.Status {
	src := r.Src
	if r.IsSend() {
		src = c.Rank()
	}
	return comm.Status{Source: src, Tag: r.Tag, Err: err}
}

// fail lands the sticky session error on every current op; later ops
// are born failed.
func (c *RemoteComm) fail(err error) {
	c.mu.Lock()
	if c.dead == nil {
		c.dead = err
	}
	dead := c.dead
	ops := c.ops
	c.ops = map[uint64]*progress.Req{}
	c.mu.Unlock()
	for _, r := range ops {
		r.CompleteIfLive(c.failed(r, dead))
	}
}

// startOp registers a new remote op with its peer (source for a receive,
// destination for a send), tag and a receive's posted buffer, and ships
// its frame.
func (c *RemoteComm) startOp(isSend bool, peer int, tag comm.Tag, buf []byte, frame func(id uint64) []byte) comm.Request {
	r := c.eng.StartOp(isSend)
	if isSend {
		r.Dst = peer
	} else {
		r.Src, r.Msg.Data = peer, buf
	}
	r.Tag = tag
	c.mu.Lock()
	if dead := c.dead; dead != nil {
		c.mu.Unlock()
		r.Complete(c.failed(r, dead))
		return r
	}
	c.nextID++
	id := c.nextID
	c.ops[id] = r
	c.mu.Unlock()
	if err := c.sess.writeFrame(frame(id)); err != nil {
		c.fail(err)
	}
	return r
}

// Isend starts a non-blocking remote send.
func (c *RemoteComm) Isend(dst int, tag comm.Tag, msg comm.Msg) comm.Request {
	return c.startOp(true, dst, tag, nil, func(id uint64) []byte {
		return encodeIsend(isendMsg{
			ID: id, Dst: dst, Tag: tag, Size: msg.Size,
			HasData: msg.Data != nil, Data: msg.Data,
		})
	})
}

// Irecv posts a non-blocking remote receive.
func (c *RemoteComm) Irecv(src int, tag comm.Tag) comm.Request {
	return c.IrecvInto(src, tag, nil)
}

// IrecvInto posts a non-blocking remote receive whose payload lands in
// buf when its op-done frame arrives.
func (c *RemoteComm) IrecvInto(src int, tag comm.Tag, buf []byte) comm.Request {
	return c.startOp(false, src, tag, buf, func(id uint64) []byte {
		return encodeIrecv(irecvMsg{ID: id, Src: src, Tag: tag})
	})
}

// Send is the blocking send.
func (c *RemoteComm) Send(dst int, tag comm.Tag, msg comm.Msg) {
	c.Wait(c.Isend(dst, tag, msg))
}

// Recv is the blocking receive.
func (c *RemoteComm) Recv(src int, tag comm.Tag) comm.Status {
	return c.Wait(c.Irecv(src, tag))
}

// Wait blocks until r completes, firing ready callbacks meanwhile.
func (c *RemoteComm) Wait(r comm.Request) comm.Status { return c.eng.Wait(r) }

// WaitAll blocks until every request completes; nil entries are skipped.
func (c *RemoteComm) WaitAll(rs []comm.Request) { c.eng.WaitAll(rs) }

// WaitAny blocks until some live request completes and returns its
// index; nil entries are skipped.
func (c *RemoteComm) WaitAny(rs []comm.Request) (int, comm.Status) { return c.eng.WaitAny(rs) }

// OnComplete attaches a completion callback; it fires on the owner
// goroutine from inside Progress or a Wait variant.
func (c *RemoteComm) OnComplete(r comm.Request, fn func(comm.Status)) { c.eng.OnComplete(r, fn) }

// Progress blocks until at least one pending completion is processed,
// fires ready callbacks, and returns. It panics when nothing is in
// flight — a stuck progress loop is a bug.
func (c *RemoteComm) Progress() { c.eng.Progress() }

// TryProgress fires ready callbacks without blocking and reports
// whether it did anything.
func (c *RemoteComm) TryProgress() bool { return c.eng.TryProgress() }

// Compute is local work: the client performs it for real (no-op here —
// callers do their arithmetic inline, as with the live runtime).
func (c *RemoteComm) Compute(n int, kind comm.ComputeKind) {}

// Now returns wall time elapsed on this client's clock.
func (c *RemoteComm) Now() time.Duration { return time.Since(c.start) }
