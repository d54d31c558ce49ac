package core

import (
	"fmt"

	"adapt/internal/comm"
	"adapt/internal/trees"
)

// Allreduce is the event-driven fused allreduce (§2.2.3 extended): a
// reduction and a broadcast over the same tree whose pipelines overlap
// per segment. The moment a segment's fold completes at the root it
// starts travelling back down, while later segments are still being
// reduced — no barrier between the two phases. Both directions use the
// standard (N, M) windows.
//
// Contrast with coll.Allreduce (reduce, then broadcast, sequentially) and
// coll.AllreduceRing (the bandwidth-optimal ring). The fused tree version
// wins when segment counts are large enough to overlap the two phases.
type allreduceState struct {
	c   comm.Comm
	t   *trees.Tree
	opt Options

	segs []comm.Segment

	// Up (reduce) direction.
	needed   []int // child contributions outstanding per segment
	children []int
	upPost   []int // per-child next segment to post a receive for
	up       *childStream

	// Down (broadcast) direction.
	downStreams []*childStream
	downPost    int // next segment to post a down-receive for (non-root)

	upRecvPending   int
	upSendPending   int
	downRecvPending int
	downSendPending int

	outData []byte
	total   int
	space   comm.MemSpace
}

// Allreduce folds every rank's contribution under opt.Op and delivers the
// result to all ranks, as one fused pipeline over tree t. contrib.Data,
// when present, is folded in place at intermediate ranks — pass a private
// copy. Returns the full result on every rank.
func Allreduce(c comm.Comm, t *trees.Tree, contrib comm.Msg, opt Options) comm.Msg {
	return StartAllreduce(c, t, contrib, opt).Wait()
}

// StartAllreduce begins a non-blocking fused allreduce.
func StartAllreduce(c comm.Comm, t *trees.Tree, contrib comm.Msg, opt Options) *Op {
	opt = opt.validate()
	if t.Size() != c.Size() {
		panic(fmt.Sprintf("core: tree size %d != communicator size %d", t.Size(), c.Size()))
	}
	end := traceStart(c, comm.KindAllreduce, opt, t.Root, contrib.Size)
	s := newAllreduceState(c, t, contrib, opt)
	return end(&Op{
		c: c,
		pending: func() bool {
			return s.upRecvPending > 0 || s.upSendPending > 0 ||
				s.downRecvPending > 0 || s.downSendPending > 0
		},
		result: func() comm.Msg {
			return comm.Msg{Data: s.outData, Size: s.total, Space: s.space}
		},
	})
}

func newAllreduceState(c comm.Comm, t *trees.Tree, contrib comm.Msg, opt Options) *allreduceState {
	me := c.Rank()
	s := &allreduceState{
		c: c, t: t, opt: opt,
		segs:     comm.Segments(contrib, opt.SegSize),
		children: t.Children[me],
		total:    contrib.Size,
		space:    contrib.Space,
	}
	ns := len(s.segs)
	s.needed = make([]int, ns)
	for i := range s.needed {
		s.needed[i] = len(s.children)
	}
	s.upPost = make([]int, len(s.children))
	s.upRecvPending = ns * len(s.children)
	s.downSendPending = ns * len(s.children)
	downTag, downSent := opt.tagger(comm.KindAllreduce), func() { s.downSendPending-- }
	for _, ch := range s.children {
		s.downStreams = append(s.downStreams, newChildStream(c, ch, opt.SendWindow, downTag, downSent))
	}
	if p := t.Parent[me]; p != -1 {
		s.up = newChildStream(c, p, opt.SendWindow, opt.tagger(comm.KindReduce),
			func() { s.upSendPending-- })
		s.upSendPending = ns
		s.downRecvPending = ns
		// Post the down-direction receive window immediately: the root may
		// start broadcasting early segments while we are still reducing.
		for i := 0; i < opt.RecvWindow && s.downPost < ns; i++ {
			s.postDownRecv()
		}
	}
	// At the root the final data is the in-place folded contribution.
	if me == t.Root {
		s.outData = contrib.Data
	}

	// Up-direction receive windows.
	for ci := range s.children {
		for i := 0; i < opt.RecvWindow && s.upPost[ci] < ns; i++ {
			s.postUpRecv(ci)
		}
	}
	// Leaf segments are immediately ready to travel up.
	for seg := range s.needed {
		if s.needed[seg] == 0 {
			s.segFolded(seg)
		}
	}
	return s
}

func (s *allreduceState) postUpRecv(ci int) {
	seg := s.upPost[ci]
	s.upPost[ci]++
	r := s.c.Irecv(s.children[ci], s.opt.TagOf(comm.KindReduce, seg))
	s.c.OnComplete(r, func(st comm.Status) { s.onContribution(ci, seg, st) })
}

func (s *allreduceState) onContribution(ci, seg int, st comm.Status) {
	s.upRecvPending--
	if s.upPost[ci] < len(s.segs) {
		s.postUpRecv(ci)
	}
	if st.Msg.Data != nil {
		if s.segs[seg].Msg.Data != nil {
			s.opt.Op.Apply(s.segs[seg].Msg.Data, st.Msg.Data, s.opt.Datatype)
		}
		// Folded (or dropped): the receiver-owned buffer is dead.
		comm.PutBuf(st.Msg.Data)
	}
	s.c.Compute(s.opt.ReduceCost(st.Msg.Size), comm.ComputeReduce)
	s.needed[seg]--
	if s.needed[seg] == 0 {
		s.segFolded(seg)
	}
}

// segFolded: this rank's fold of the segment is complete. Non-roots ship
// it to the parent; the root turns it around immediately — the fusion.
func (s *allreduceState) segFolded(seg int) {
	if s.up != nil {
		s.up.offer(seg, s.segs[seg].Msg)
		s.up.pump()
		return
	}
	s.turnaround(seg, s.segs[seg].Msg)
}

func (s *allreduceState) postDownRecv() {
	seg := s.downPost
	s.downPost++
	r := s.c.Irecv(s.t.Parent[s.c.Rank()], s.opt.TagOf(comm.KindAllreduce, seg))
	s.c.OnComplete(r, func(st comm.Status) { s.onDownSegment(seg, st) })
}

func (s *allreduceState) onDownSegment(seg int, st comm.Status) {
	s.downRecvPending--
	if s.downPost < len(s.segs) {
		s.postDownRecv()
	}
	sg := s.segs[seg]
	fwd := comm.Msg{Size: st.Msg.Size, Space: sg.Msg.Space}
	if st.Msg.Data != nil {
		if s.outData == nil {
			// The caller's result: a plain allocation, never pooled.
			s.outData = make([]byte, s.total)
		}
		copy(s.outData[sg.Offset:], st.Msg.Data)
		// Children are fed aliases of the result, so the receiver-owned
		// segment buffer is dead: recycle it.
		comm.PutBuf(st.Msg.Data)
		fwd.Data = s.outData[sg.Offset : sg.Offset+st.Msg.Size]
	}
	s.turnaround(seg, fwd)
}

// turnaround hands a fully reduced segment to the down-direction streams.
func (s *allreduceState) turnaround(seg int, msg comm.Msg) {
	for _, cs := range s.downStreams {
		cs.offer(seg, msg)
		cs.pump()
	}
}
