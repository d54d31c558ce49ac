package core

import (
	"adapt/internal/comm"
	"adapt/internal/trace"
	"adapt/internal/trees"
)

// BcastFT is the fail-stop fault-tolerant ADAPT broadcast. Without crash
// rules armed it is exactly Bcast (plus an all-true survivor mask); with
// them, it delivers a byte-identical payload to every survivor even when
// non-root ranks crash mid-flight, and reports the committed survivor
// mask. A dead root aborts with *faults.RankFailedError on every
// survivor.
//
// The protocol keeps the plain broadcast's stable data tags — segment
// seg always travels as TagOf(KindBcast, seg), whoever the parent is —
// so repair needs no epoch restart: an orphan cancels its receives from
// the dead parent, re-attaches to the healed tree's parent, sends it a
// bit-packed re-drive request naming the segments it is still missing,
// and reposts receives for exactly those. The new parent serves the
// request from its own staging buffer. Completion is explicit: every
// live non-root tells the root when it holds the full payload (a done
// message), and the root commits the survivor mask over the control
// plane once every live rank has reported.
func BcastFT(c comm.Comm, t *trees.Tree, msg comm.Msg, opt Options) FTResult {
	return StartBcastFT(c, t, msg, opt).WaitFT()
}

// StartBcastFT begins a non-blocking BcastFT; the handle's WaitFT yields
// what BcastFT returns. Without crash rules armed it is StartBcast.
func StartBcastFT(c comm.Comm, t *trees.Tree, msg comm.Msg, opt Options) *Op {
	fs, ok := failStopOf(c)
	if !ok {
		return StartBcast(c, t, msg, opt)
	}
	opt = opt.validate()
	end := traceStart(c, comm.KindBcast, opt, t.Root, msg.Size)
	s := newBcastFT(c, fs, t, msg, opt)
	s.watch()
	s.maybeDone()
	s.maybeCommit()
	s.step()
	return end(&s.op)
}

// ftStream is one child's send pipeline in the FT broadcast: like
// childStream, it issues in strict index order within the send window,
// but only the segments the child declared it needs.
type ftStream struct {
	rank     int
	need     []bool
	next     int
	inflight int
}

// bcastFT is the per-rank fault-tolerant broadcast state machine. All
// mutation happens on the owner goroutine, in callbacks.
type bcastFT struct {
	ftBase

	segs    []comm.Segment // geometry over the declared size
	outData []byte         // staging: assembled payload (root: the source)

	have      []bool
	haveCount int

	// Receive side (toward the current parent).
	parent      int
	expected    []bool // segments the current parent will send us
	recvd       []bool // expectations already consumed
	pendingRecv map[int]comm.Request
	scan        int // posting cursor; reset when the parent changes

	// Send side.
	streams  map[int]*ftStream
	reqRecvs map[int]comm.Request // expected new child → redrive request recv

	// Root bookkeeping.
	doneRecvs map[int]comm.Request
	doneFrom  []bool
	doneSent  bool
}

func newBcastFT(c comm.Comm, fs comm.FailStop, t *trees.Tree, msg comm.Msg, opt Options) *bcastFT {
	s := &bcastFT{
		segs:        comm.Segments(comm.Msg{Size: msg.Size, Space: msg.Space}, opt.SegSize),
		pendingRecv: make(map[int]comm.Request),
		streams:     make(map[int]*ftStream),
		reqRecvs:    make(map[int]comm.Request),
	}
	s.ftBase = newFTBase(c, fs, t, msg, opt, s)
	s.have = make([]bool, s.ns)
	s.parent = t.Parent[s.rank]

	if s.rank == t.Root {
		s.outData = msg.Data
		for i := range s.have {
			s.have[i] = true
		}
		s.haveCount = s.ns
		s.doneFrom = make([]bool, s.n)
		s.doneRecvs = make(map[int]comm.Request)
		for r := 0; r < s.n; r++ {
			if r != s.rank {
				s.postDoneRecv(r)
			}
		}
	} else {
		s.expected = make([]bool, s.ns)
		s.recvd = make([]bool, s.ns)
		for i := range s.expected {
			s.expected[i] = true
		}
		s.postWindow()
	}
	// Original children want everything.
	for _, ch := range t.Children[s.rank] {
		cs := &ftStream{rank: ch, need: make([]bool, s.ns)}
		for i := range cs.need {
			cs.need[i] = true
		}
		s.streams[ch] = cs
		s.pumpChild(cs)
	}
	return s
}

func (s *bcastFT) payload() []byte { return s.outData }
func (s *bcastFT) recvsOpen() bool { return len(s.pendingRecv) != 0 }

// ---- receive side ----

// postWindow keeps RecvWindow receives posted toward the current parent,
// in index order over the outstanding expected segments.
func (s *bcastFT) postWindow() {
	if s.parent < 0 || s.finishing {
		return
	}
	for len(s.pendingRecv) < s.opt.RecvWindow && s.scan < s.ns {
		seg := s.scan
		s.scan++
		if !s.expected[seg] || s.recvd[seg] {
			continue
		}
		req := s.c.Irecv(s.parent, s.opt.TagOf(comm.KindBcast, seg))
		s.pendingRecv[seg] = req
		from := s.parent
		s.on(req, func(st comm.Status) { s.onSeg(req, from, seg, st) })
	}
}

// onSeg handles one segment arrival — possibly a stale one from a dead
// former parent (a receive that matched before it could be cancelled), or
// a duplicate of a segment the old parent already delivered.
func (s *bcastFT) onSeg(req comm.Request, from, seg int, st comm.Status) {
	if cur, ok := s.pendingRecv[seg]; ok && cur == req {
		delete(s.pendingRecv, seg)
	}
	if st.Err != nil {
		// The transfer died with its sender; the death notice re-drives it.
		s.postWindow()
		return
	}
	if from == s.parent {
		s.recvd[seg] = true
	}
	if st.Msg.Data != nil {
		if !s.have[seg] {
			if s.outData == nil {
				// Every byte is overwritten before the result is read.
				s.outData = comm.GetBuf(s.total)
			}
			copy(s.outData[s.segs[seg].Offset:], st.Msg.Data)
		}
		comm.PutBuf(st.Msg.Data)
	}
	if !s.have[seg] {
		s.have[seg] = true
		s.haveCount++
		// Rank order, not map order: pumping issues sends, and the event
		// schedule must not depend on map iteration.
		for r := 0; r < s.n; r++ {
			if cs, ok := s.streams[r]; ok {
				s.pumpChild(cs)
			}
		}
	}
	s.postWindow()
	s.maybeDone()
}

// ---- send side ----

func (s *bcastFT) segMsg(seg int) comm.Msg {
	sg := s.segs[seg]
	m := comm.Msg{Size: sg.Msg.Size, Space: s.space}
	if s.outData != nil {
		m.Data = s.outData[sg.Offset : sg.Offset+sg.Msg.Size]
	}
	return m
}

// pumpChild issues needed, available segments to one child in strict
// index order within the send window.
func (s *bcastFT) pumpChild(cs *ftStream) {
	if s.finishing || s.dead[cs.rank] {
		return
	}
	for cs.inflight < s.opt.SendWindow {
		for cs.next < s.ns && !cs.need[cs.next] {
			cs.next++
		}
		if cs.next >= s.ns || !s.have[cs.next] {
			return
		}
		seg := cs.next
		cs.next++
		cs.inflight++
		s.send(cs.rank, s.opt.TagOf(comm.KindBcast, seg), s.segMsg(seg), true, func() {
			cs.inflight--
			s.pumpChild(cs)
		})
	}
}

// ---- completion plumbing (done / commit) ----

func (s *bcastFT) postDoneRecv(r int) {
	req := s.c.Irecv(r, s.opt.TagOf(comm.KindDone, r))
	s.doneRecvs[r] = req
	s.on(req, func(st comm.Status) {
		delete(s.doneRecvs, r)
		if st.Msg.Data != nil {
			comm.PutBuf(st.Msg.Data)
		}
		s.doneFrom[r] = true
		s.maybeCommit()
	})
}

// maybeDone tells the root this rank holds the full payload.
func (s *bcastFT) maybeDone() {
	if s.rank == s.t.Root || s.doneSent || s.finishing || s.haveCount != s.ns {
		return
	}
	s.doneSent = true
	s.send(s.t.Root, s.opt.TagOf(comm.KindDone, s.rank), comm.Sized(1), false, nil)
}

// maybeCommit (root only) commits once every live non-root rank has
// reported done. A rank that dies after reporting stays in the mask: its
// payload was delivered, so the mask remains consistent with the data.
func (s *bcastFT) maybeCommit() {
	if s.rank != s.t.Root || s.finishing {
		return
	}
	for r := 0; r < s.n; r++ {
		if r != s.rank && !s.dead[r] && !s.doneFrom[r] {
			return
		}
	}
	s.commit()
}

// ---- failure handling ----

// onDeath processes one confirmed death: heal the tree, re-parent if
// orphaned, adopt re-driven grandchildren.
func (s *bcastFT) onDeath(r int) {
	if s.dead[r] {
		return
	}
	if r == s.t.Root {
		// The payload source is gone: unrecoverable by design.
		s.dead[r] = true
		s.abort(r, comm.KindBcast)
		return
	}
	if req, ok := s.reqRecvs[r]; ok { // re-drive requests are eager: cancel-safe
		s.fs.CancelRecv(req)
		delete(s.reqRecvs, r)
	}
	if req, ok := s.doneRecvs[r]; ok {
		s.fs.CancelRecv(req)
		delete(s.doneRecvs, r)
	}
	s.forget(r)
	delete(s.streams, r) // in-flight sends to it fail fast and drain
	if s.finishing {
		if r == s.parent {
			s.cancelParentRecvs()
		}
		return
	}
	cur := s.t.Heal(s.dead)
	if r == s.parent {
		s.reparent(cur.Parent[s.rank])
	}
	// Ranks whose healed parent is now us will announce themselves with a
	// re-drive request; post its receive (idempotent across deaths).
	for _, ch := range cur.Children[s.rank] {
		if _, have := s.streams[ch]; have {
			continue
		}
		if _, posted := s.reqRecvs[ch]; posted {
			continue
		}
		s.postReqRecv(ch)
	}
	s.maybeCommit() // one fewer done may be needed now
}

// reparent attaches this orphan to the healed tree's parent: cancel the
// dead parent's receives, declare the still-missing segments, repost.
func (s *bcastFT) reparent(np int) {
	s.cancelParentRecvs()
	s.parent = np
	for i := range s.expected {
		// A receive that matched before cancellation counts as missing: if
		// its payload still lands we absorb the new parent's copy as a dup.
		s.expected[i] = !s.have[i]
		s.recvd[i] = false
	}
	s.scan = 0
	// Announce: always send the request, even with nothing missing — the
	// new parent learns of its child from this message alone.
	missing := 0
	for _, m := range s.expected {
		if m {
			missing++
		}
	}
	trace.Emit(s.c, trace.Record{Kind: trace.Redrive, Peer: np,
		Tag: s.opt.TagOf(comm.KindRedrive, s.rank), Size: missing})
	s.send(np, s.opt.TagOf(comm.KindRedrive, s.rank), comm.Bytes(packBits(s.expected)), false, nil)
	s.postWindow()
}

func (s *bcastFT) cancelParentRecvs() {
	for seg, req := range s.pendingRecv {
		// false = already matched; its callback still lands (data or error).
		s.fs.CancelRecv(req)
		delete(s.pendingRecv, seg)
	}
}

// postReqRecv waits for an orphan's re-drive request.
func (s *bcastFT) postReqRecv(ch int) {
	req := s.c.Irecv(ch, s.opt.TagOf(comm.KindRedrive, ch))
	s.reqRecvs[ch] = req
	s.on(req, func(st comm.Status) {
		delete(s.reqRecvs, ch)
		need := unpackBits(st.Msg.Data, s.ns)
		if st.Msg.Data != nil {
			comm.PutBuf(st.Msg.Data)
		}
		cs := &ftStream{rank: ch, need: need}
		s.streams[ch] = cs
		s.pumpChild(cs)
	})
}

// ---- teardown (quiesce handshake) ----

func (s *bcastFT) teardown() {
	s.finishing = true
	// FIN every live rank that may hold posted receives from us: a child
	// posts its window toward its parent as soon as the (healed) tree
	// names us, even before any payload flows — so data-send history alone
	// under-counts the peers waiting on our FIN.
	for ch := range s.streams {
		s.sentTo[ch] = true
	}
	for ch := range s.reqRecvs {
		s.sentTo[ch] = true
	}
	for ch, req := range s.reqRecvs { // eager senders: cancel-safe
		s.fs.CancelRecv(req)
		delete(s.reqRecvs, ch)
	}
	for r, req := range s.doneRecvs {
		s.fs.CancelRecv(req)
		delete(s.doneRecvs, r)
	}
	if len(s.pendingRecv) > 0 {
		if s.parent < 0 || s.dead[s.parent] {
			s.cancelParentRecvs() // dead sender: annihilation makes this safe
		} else if _, posted := s.finRecvs[s.parent]; !posted {
			// A live parent may still have payload in flight; wait for its
			// FIN before cancelling, or a stranded rendezvous announcement
			// would hang the parent's drain.
			s.awaitFin(s.parent, s.cancelParentRecvs)
		}
	}
}
