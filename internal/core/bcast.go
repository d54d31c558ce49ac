package core

import (
	"adapt/internal/comm"
	"adapt/internal/trees"
)

// childStream is one peer's independent send pipeline: segments become
// ready in any order (the segment pool), but are *issued* in strict index
// order within a window of SendWindow in-flight sends. Ordered issuance
// matters for correctness, not just performance: the receiver keeps M
// in-order receives posted, so an out-of-order rendezvous send could fill
// the window with transfers the receiver will not match yet while the
// sends it waits for sit behind them — a head-of-line deadlock. With a
// strictly ordered in-flight prefix the receiver's window always matches.
//
// A stream is bound at construction to its communicator, window, tag
// function (stream index → wire tag) and per-completion hook, and builds
// its send-completion callback once, so issuing a segment allocates no
// closure.
type childStream struct {
	c        comm.Comm
	rank     int
	window   int
	tagf     func(int) comm.Tag
	onDone   func()           // runs once per completed send
	ready    map[int]comm.Msg // segment index → payload ready to issue
	next     int              // next index to issue
	inflight int
	sentFn   func(comm.Status) // cs.onSent, bound once
}

func newChildStream(c comm.Comm, rank, window int, tagf func(int) comm.Tag, onDone func()) *childStream {
	cs := &childStream{c: c, rank: rank, window: window, tagf: tagf, onDone: onDone,
		ready: make(map[int]comm.Msg)}
	cs.sentFn = cs.onSent
	return cs
}

// offer marks segment idx ready for issue.
func (cs *childStream) offer(idx int, msg comm.Msg) {
	cs.ready[idx] = msg
}

// pump issues ready segments in index order while the window has room.
// Each completion re-enters pump, never touching sibling streams.
func (cs *childStream) pump() {
	for cs.inflight < cs.window {
		msg, ok := cs.ready[cs.next]
		if !ok {
			return
		}
		delete(cs.ready, cs.next)
		idx := cs.next
		cs.next++
		cs.inflight++
		cs.c.OnComplete(cs.c.Isend(cs.rank, cs.tagf(idx), msg), cs.sentFn)
	}
}

func (cs *childStream) onSent(comm.Status) {
	cs.inflight--
	cs.onDone()
	cs.pump()
}

// bcastState is the per-rank ADAPT broadcast state machine.
type bcastState struct {
	c    comm.Comm
	t    *trees.Tree
	opt  Options
	segs []comm.Segment
	kind comm.CollKind

	children []*childStream
	// receive side (non-root)
	parent      int
	nextPost    int // next segment index to post an Irecv for
	recvPending int // segments not yet received
	sendPending int // (child, segment) transfers not yet completed
	// assembled payload (allocated lazily, only for real data)
	total   int
	space   comm.MemSpace
	outData []byte
}

// Bcast performs the ADAPT event-driven broadcast (paper §2.2.1, Figure 4)
// of msg from t.Root over tree t. At the root, msg is the payload; at
// other ranks msg.Size declares the expected byte count (msg.Data is
// ignored). It returns the full message as received (with Data set only
// if the root sent real bytes).
func Bcast(c comm.Comm, t *trees.Tree, msg comm.Msg, opt Options) comm.Msg {
	return StartBcast(c, t, msg, opt).Wait()
}

// newBcastState wires up the state machine and posts the initial window.
// opt must already be validated.
func newBcastState(c comm.Comm, t *trees.Tree, msg comm.Msg, opt Options) *bcastState {
	s := &bcastState{
		c: c, t: t, opt: opt, kind: comm.KindBcast,
		parent: t.Parent[c.Rank()], total: msg.Size, space: msg.Space,
	}
	tagf, sent := opt.tagger(s.kind), func() { s.sendPending-- }
	for _, ch := range t.Children[c.Rank()] {
		s.children = append(s.children, newChildStream(c, ch, opt.SendWindow, tagf, sent))
	}

	if c.Rank() == t.Root {
		s.segs = comm.Segments(msg, opt.SegSize)
		s.outData = msg.Data
		// Root: the whole segment pool is ready for every child at once.
		for _, cs := range s.children {
			for _, sg := range s.segs {
				cs.offer(sg.Index, sg.Msg)
			}
			s.sendPending += len(s.segs)
			cs.pump()
		}
	} else {
		// Non-root: pre-build the segment table from the declared size so
		// tags and offsets line up with the root's segmentation.
		s.segs = comm.Segments(comm.Msg{Size: msg.Size, Space: msg.Space}, opt.SegSize)
		s.recvPending = len(s.segs)
		s.sendPending = len(s.segs) * len(s.children)
		// Post the first M receives (the paper posts M > N to make sure a
		// receive is always waiting when a segment arrives).
		for i := 0; i < opt.RecvWindow && s.nextPost < len(s.segs); i++ {
			s.postRecv()
		}
	}
	return s
}

// postRecv posts the next receive in the window and arms its callback.
func (s *bcastState) postRecv() {
	seg := s.nextPost
	s.nextPost++
	r := s.c.Irecv(s.parent, s.opt.TagOf(s.kind, seg))
	s.c.OnComplete(r, func(st comm.Status) { s.onSegment(seg, st) })
}

// onSegment handles the arrival of one segment from the parent: keep the
// receive window full, record the payload, and hand the segment to every
// child's independent stream.
func (s *bcastState) onSegment(seg int, st comm.Status) {
	s.recvPending--
	if s.nextPost < len(s.segs) {
		s.postRecv()
	}
	sg := s.segs[seg]
	fwd := comm.Msg{Size: st.Msg.Size, Space: sg.Msg.Space}
	if st.Msg.Data != nil {
		if s.outData == nil {
			// Every byte is overwritten by some segment before the result
			// is read, so a dirty pooled buffer is fine.
			s.outData = comm.GetBuf(s.total)
		}
		copy(s.outData[sg.Offset:], st.Msg.Data)
		// Children are fed aliases of the assembled result, so the
		// receiver-owned segment buffer is dead: recycle it.
		comm.PutBuf(st.Msg.Data)
		fwd.Data = s.outData[sg.Offset : sg.Offset+st.Msg.Size]
	}
	sg.Msg = fwd
	for _, cs := range s.children {
		cs.offer(sg.Index, sg.Msg)
		cs.pump()
	}
}
