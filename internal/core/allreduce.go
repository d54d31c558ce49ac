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
//
// A rank's whole state is one allocation: the operation handle, the
// per-segment progress and the send streams live inline (for the usual
// handful of segments and streams), and the receive and send handlers
// are method values bound once.
type allreduceState struct {
	op  Op // the handle StartAllreduce returns
	c   comm.Comm
	opt Options

	parent   int   // -1 at the root
	children []int // t.Children[me]

	ns, total int
	space     comm.MemSpace
	outData   []byte // the result, folded and received in place (nil when elided)

	// state[seg] counts the child contributions still to fold: 0 once
	// the segment is folded (ready to send up, or at the root to send
	// down), downMark once a non-root rank has received it back (ready
	// to send down). A segment's fold precedes its return from above,
	// since the parent sends it down only after folding this rank's part.
	state    []int32
	downMark int32

	// streams[i] sends down to children[i] and posts its up receives;
	// streams[len(children)] sends up to the parent.
	streams  []arStream
	downPost int // next segment to post a down-receive for (non-root)

	upFn, downFn func(comm.Status) // onContribution, onDownSegment

	upRecvPending   int
	upSendPending   int
	downRecvPending int
	downSendPending int

	inlState   [4]int32
	inlStreams [4]arStream
}

// arStream is one peer's ordered send pipeline (see childStream): it
// issues segments in index order within the send window once state says
// they are ready. A down stream also keeps its child's up-receive
// cursor.
type arStream struct {
	s        *allreduceState
	rank     int
	up       bool
	next     int // next segment to issue
	inflight int
	post     int               // down stream: next up-receive segment to post
	sentFn   func(comm.Status) // onSent, bound once
}

// Allreduce folds every rank's contribution under opt.Op and delivers the
// result to all ranks, as one fused pipeline over tree t. contrib.Data,
// when present, is the result buffer on every rank (MPI_IN_PLACE): the
// root and intermediate ranks fold into it, and every non-root rank
// receives the down segments straight into it, so pass a private copy
// that no other rank or later call reads. The returned Msg's Data is
// contrib.Data.
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
	return end(&newAllreduceState(c, t, contrib, opt).op)
}

func (s *allreduceState) pending() bool {
	return s.upRecvPending > 0 || s.upSendPending > 0 ||
		s.downRecvPending > 0 || s.downSendPending > 0
}

func (s *allreduceState) result() comm.Msg {
	return comm.Msg{Data: s.outData, Size: s.total, Space: s.space}
}

func newAllreduceState(c comm.Comm, t *trees.Tree, contrib comm.Msg, opt Options) *allreduceState {
	me := c.Rank()
	s := &allreduceState{
		c: c, opt: opt,
		parent:   t.Parent[me],
		children: t.Children[me],
		ns:       comm.NumSegments(contrib.Size, opt.SegSize),
		total:    contrib.Size,
		space:    contrib.Space,
		// The result overwrites the contribution in place on every rank:
		// the root folds into it, and a non-root rank receives each down
		// segment into it. That cannot clobber bytes still to be sent up:
		// down segment k leaves the parent only after the parent has
		// received this rank's up segment k, and by then every substrate
		// is done reading that send's payload (snapshotted at Isend, or
		// pulled or written out to complete the parent's receive).
		outData: contrib.Data,
	}
	s.op = Op{c: c, st: s}
	ns, nch := s.ns, len(s.children)
	s.state = s.inlState[:0]
	if ns > len(s.inlState) {
		s.state = make([]int32, 0, ns)
	}
	for range ns {
		s.state = append(s.state, int32(nch))
	}
	nst := nch
	if s.parent != -1 {
		nst++
	}
	s.streams = s.inlStreams[:0]
	if nst > len(s.inlStreams) {
		s.streams = make([]arStream, 0, nst)
	}
	for _, ch := range s.children {
		s.streams = append(s.streams, arStream{s: s, rank: ch})
	}
	if nch > 0 {
		s.upFn = s.onContribution
	}
	s.upRecvPending = ns * nch
	s.downSendPending = ns * nch
	if s.parent != -1 {
		s.streams = append(s.streams, arStream{s: s, rank: s.parent, up: true})
		s.downMark = -1
		s.downFn = s.onDownSegment
		s.upSendPending = ns
		s.downRecvPending = ns
		// Post the down-direction receive window immediately: the root may
		// start broadcasting early segments while we are still reducing.
		for i := 0; i < opt.RecvWindow && s.downPost < ns; i++ {
			s.postDownRecv()
		}
	}
	for i := range s.streams {
		s.streams[i].sentFn = s.streams[i].onSent
	}

	// Up-direction receive windows.
	for ci := range s.children {
		for i := 0; i < opt.RecvWindow && s.streams[ci].post < ns; i++ {
			s.postUpRecv(ci)
		}
	}
	// A leaf's segments are all ready to travel up at once.
	if nch == 0 {
		s.segFolded()
	}
	return s
}

// seg returns segment i of the result: its bytes in place (nil when
// elided), size and memory space.
func (s *allreduceState) seg(i int) comm.Msg {
	off := i * s.opt.SegSize
	n := min(s.opt.SegSize, s.total-off)
	m := comm.Msg{Size: n, Space: s.space}
	if s.outData != nil {
		m.Data = s.outData[off : off+n]
	}
	return m
}

func (s *allreduceState) postUpRecv(ci int) {
	cs := &s.streams[ci]
	seg := cs.post
	cs.post++
	s.c.OnComplete(s.c.Irecv(cs.rank, s.opt.TagOf(comm.KindReduce, seg)), s.upFn)
}

// onContribution folds a child's segment into the result. The receive
// lands in a scratch buffer of the substrate's: the fold reads both.
func (s *allreduceState) onContribution(st comm.Status) {
	ci, seg := childIndex(s.children, st.Source), st.Tag.Seg()
	s.upRecvPending--
	if s.streams[ci].post < s.ns {
		s.postUpRecv(ci)
	}
	if st.Msg.Data != nil {
		if s.outData != nil {
			s.opt.Op.Apply(s.seg(seg).Data, st.Msg.Data, s.opt.Datatype)
		}
		// Folded (or dropped): the receiver-owned buffer is dead.
		comm.PutBuf(st.Msg.Data)
	}
	s.c.Compute(s.opt.ReduceCost(st.Msg.Size), comm.ComputeReduce)
	if s.state[seg]--; s.state[seg] == 0 {
		s.segFolded()
	}
}

// segFolded: this rank's fold of a segment is complete. Non-roots ship
// it to the parent; the root turns it around immediately — the fusion.
func (s *allreduceState) segFolded() {
	if s.parent != -1 {
		s.streams[len(s.children)].pump()
		return
	}
	s.turnaround()
}

// postDownRecv posts the next down receive, straight into the result
// segment it delivers.
func (s *allreduceState) postDownRecv() {
	seg := s.downPost
	s.downPost++
	tag := s.opt.TagOf(comm.KindAllreduce, seg)
	var r comm.Request
	if s.outData != nil {
		r = s.c.IrecvInto(s.parent, tag, s.seg(seg).Data)
	} else {
		r = s.c.Irecv(s.parent, tag)
	}
	s.c.OnComplete(r, s.downFn)
}

// onDownSegment: a fully reduced segment arrived from the parent, in
// place in the result; pass it on to the children.
func (s *allreduceState) onDownSegment(st comm.Status) {
	seg := st.Tag.Seg()
	s.downRecvPending--
	if s.downPost < s.ns {
		s.postDownRecv()
	}
	s.state[seg] = s.downMark
	s.turnaround()
}

// turnaround pumps the down-direction streams: a segment just became
// ready to send down.
func (s *allreduceState) turnaround() {
	for i := range s.children {
		s.streams[i].pump()
	}
}

// pump issues ready segments in index order while the window has room.
func (cs *arStream) pump() {
	s := cs.s
	kind := comm.KindAllreduce
	if cs.up {
		kind = comm.KindReduce
	}
	for cs.inflight < s.opt.SendWindow && cs.next < s.ns {
		st := s.state[cs.next]
		if cs.up && st > 0 || !cs.up && st != s.downMark {
			return
		}
		idx := cs.next
		cs.next++
		cs.inflight++
		s.c.OnComplete(s.c.Isend(cs.rank, s.opt.TagOf(kind, idx), s.seg(idx)), cs.sentFn)
	}
}

func (cs *arStream) onSent(comm.Status) {
	cs.inflight--
	if cs.up {
		cs.s.upSendPending--
	} else {
		cs.s.downSendPending--
	}
	cs.pump()
}
