package core

import (
	"adapt/internal/comm"
	"adapt/internal/trees"
)

// reduceState is the per-rank ADAPT reduce state machine. Data flows
// leaves → root over the same tree shape as the broadcast, reversed. Per
// segment and per child, receives advance independently (window M);
// a segment travels to the parent as soon as all children contributed to
// it, regardless of other segments (window N) — segment independence for
// the reduction.
type reduceState struct {
	c   comm.Comm
	t   *trees.Tree
	opt Options

	segs []comm.Segment // local contribution, folded in place
	// needed[seg] counts child contributions still missing.
	needed []int
	// per-child next segment index to post a receive for.
	children []int
	nextPost []int

	up          *childStream // stream to parent (nil at root)
	recvPending int
	sendPending int
	readySegs   int
}

// Reduce performs the ADAPT event-driven reduction over tree t: every
// rank contributes contrib, and the element-wise fold under opt.Op lands
// at t.Root. The returned Msg is meaningful at the root only (Data set
// only if contributions carry real bytes). contrib.Data, when present, is
// folded in place at intermediate ranks — pass a private copy.
func Reduce(c comm.Comm, t *trees.Tree, contrib comm.Msg, opt Options) comm.Msg {
	return StartReduce(c, t, contrib, opt).Wait()
}

// newReduceState wires up the state machine and posts the initial
// windows. opt must already be validated.
func newReduceState(c comm.Comm, t *trees.Tree, contrib comm.Msg, opt Options) *reduceState {
	s := &reduceState{
		c: c, t: t, opt: opt,
		segs:     comm.Segments(contrib, opt.SegSize),
		children: t.Children[c.Rank()],
	}
	ns := len(s.segs)
	s.needed = make([]int, ns)
	for i := range s.needed {
		s.needed[i] = len(s.children)
	}
	s.nextPost = make([]int, len(s.children))
	s.recvPending = ns * len(s.children)
	if p := t.Parent[c.Rank()]; p != -1 {
		s.up = newChildStream(c, p, opt.SendWindow, opt.tagger(comm.KindReduce),
			func() { s.sendPending-- })
		s.sendPending = ns
	}

	// Post the first M receives per child.
	for ci := range s.children {
		for i := 0; i < opt.RecvWindow && s.nextPost[ci] < ns; i++ {
			s.postRecv(ci)
		}
	}
	// Segments with no pending children (leaves: all of them) are ready.
	for seg := range s.needed {
		if s.needed[seg] == 0 {
			s.segReady(seg)
		}
	}
	return s
}

func (s *reduceState) postRecv(ci int) {
	seg := s.nextPost[ci]
	s.nextPost[ci]++
	r := s.c.Irecv(s.children[ci], s.opt.TagOf(comm.KindReduce, seg))
	s.c.OnComplete(r, func(st comm.Status) { s.onContribution(ci, seg, st) })
}

// onContribution folds one child's segment into the local accumulator.
func (s *reduceState) onContribution(ci, seg int, st comm.Status) {
	s.recvPending--
	if s.nextPost[ci] < len(s.segs) {
		s.postRecv(ci)
	}
	if st.Msg.Data != nil {
		if s.segs[seg].Msg.Data != nil {
			s.opt.Op.Apply(s.segs[seg].Msg.Data, st.Msg.Data, s.opt.Datatype)
		}
		// The contribution was folded into the local accumulator (or
		// dropped); the receiver-owned buffer is dead either way.
		comm.PutBuf(st.Msg.Data)
	}
	// Charge the reduction arithmetic (the live runtime performed it for
	// real above and charges nothing; the simulator charges γ·m).
	s.c.Compute(s.opt.ReduceCost(st.Msg.Size), comm.ComputeReduce)
	s.needed[seg]--
	if s.needed[seg] == 0 {
		s.segReady(seg)
	}
}

// segReady forwards a fully reduced segment toward the root.
func (s *reduceState) segReady(seg int) {
	s.readySegs++
	if s.up == nil {
		return
	}
	s.up.offer(seg, s.segs[seg].Msg)
	s.up.pump()
}

// result reassembles the root's folded segments into one message.
func (s *reduceState) result(contrib comm.Msg) comm.Msg {
	if contrib.Data == nil {
		return comm.Msg{Size: contrib.Size, Space: contrib.Space}
	}
	// Segments alias contrib.Data and were folded in place.
	return comm.Msg{Data: contrib.Data, Size: contrib.Size, Space: contrib.Space}
}
