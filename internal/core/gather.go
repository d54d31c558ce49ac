package core

import (
	"fmt"

	"adapt/internal/comm"
	"adapt/internal/trees"
)

// gatherState is the event-driven gather: the reverse of scatter. Each
// rank assembles its subtree blob ([own block][child0 blob][child1 blob]…
// in DFS order) and streams outbound segments to its parent as soon as
// the inbound child segments covering them have arrived — no waiting for
// whole subtree blobs.
type gatherState struct {
	c        comm.Comm
	t        *trees.Tree
	opt      Options
	blk      int
	blob     []byte
	blobSize int
	order    []int

	children    []*gatherChild
	recvFn      func(comm.Status) // s.onInbound, bound once
	recvPending int

	// Outbound segments over the blob grid.
	up          *childStream
	outSegs     []comm.Segment
	outDeps     []int
	sendPending int

	space comm.MemSpace
}

type gatherChild struct {
	rank     int
	start    int // child blob range start within my blob
	span     int
	segs     int // inbound segment count (child blob grid)
	nextPost int
}

// Gather collects every rank's equally sized block to t.Root in rank
// order. contrib is this rank's block (the same Size on every rank).
// Returns the concatenated, rank-ordered buffer at the root.
func Gather(c comm.Comm, t *trees.Tree, contrib comm.Msg, opt Options) comm.Msg {
	return StartGather(c, t, contrib, opt).Wait()
}

// StartGather begins a non-blocking event-driven gather.
func StartGather(c comm.Comm, t *trees.Tree, contrib comm.Msg, opt Options) *Op {
	opt = opt.validate()
	if t.Size() != c.Size() {
		panic(fmt.Sprintf("core: tree size %d != communicator size %d", t.Size(), c.Size()))
	}
	end := traceStart(c, comm.KindGather, opt, t.Root, contrib.Size)
	s := newGatherState(c, t, contrib, opt)
	return end(&Op{
		c:       c,
		pending: func() bool { return s.recvPending > 0 || s.sendPending > 0 },
		result:  func() comm.Msg { return s.finish(contrib) },
	})
}

func newGatherState(c comm.Comm, t *trees.Tree, contrib comm.Msg, opt Options) *gatherState {
	me := c.Rank()
	blk := contrib.Size
	order := subtreeOrder(t, me)
	s := &gatherState{
		c: c, t: t, opt: opt, blk: blk,
		blobSize: blk * len(order), order: order, space: contrib.Space,
	}
	s.recvFn = s.onInbound
	if contrib.Data != nil {
		s.blob = make([]byte, s.blobSize)
		copy(s.blob, contrib.Data)
	}

	// Children layout mirrors scatter's.
	off := blk
	for _, ch := range t.Children[me] {
		span := blk * len(subtreeOrder(t, ch))
		gc := &gatherChild{rank: ch, start: off, span: span,
			segs: comm.NumSegments(span, opt.SegSize)}
		s.children = append(s.children, gc)
		s.recvPending += gc.segs
		off += span
	}

	if p := t.Parent[me]; p != -1 {
		s.up = newChildStream(c, p, opt.SendWindow, opt.tagger(comm.KindGather),
			func() { s.sendPending-- })
		s.outSegs = comm.Segments(comm.Msg{Size: s.blobSize, Space: contrib.Space}, opt.SegSize)
		s.outDeps = make([]int, len(s.outSegs))
		s.sendPending = len(s.outSegs)
		// Each outbound segment depends on the inbound child segments that
		// overlap it; the own-block bytes are present from the start.
		for i, sg := range s.outSegs {
			a, b := sg.Offset, sg.Offset+sg.Msg.Size
			deps := 0
			for _, gc := range s.children {
				ca, cb := intersect(a, b, gc.start, gc.start+gc.span)
				if cb > ca {
					lo, hi := segRange(ca-gc.start, cb-gc.start, opt.SegSize)
					deps += hi - lo
				}
			}
			s.outDeps[i] = deps
			if deps == 0 {
				s.releaseOut(i)
			}
		}
	}

	for _, gc := range s.children {
		for i := 0; i < opt.RecvWindow && gc.nextPost < gc.segs; i++ {
			s.postRecv(gc)
		}
	}
	return s
}

func intersect(a, b, c, d int) (int, int) {
	if c > a {
		a = c
	}
	if d < b {
		b = d
	}
	return a, b
}

func (s *gatherState) postRecv(gc *gatherChild) {
	seg := gc.nextPost
	gc.nextPost++
	s.c.OnComplete(s.c.Irecv(gc.rank, s.opt.TagOf(comm.KindGather, seg)), s.recvFn)
}

func (s *gatherState) onInbound(st comm.Status) {
	gc, seg := s.child(st.Source), st.Tag.Seg()
	s.recvPending--
	if gc.nextPost < gc.segs {
		s.postRecv(gc)
	}
	if st.Msg.Data != nil && s.blob != nil {
		copy(s.blob[gc.start+seg*s.opt.SegSize:], st.Msg.Data)
	}
	if s.up == nil {
		return
	}
	// This inbound segment covers absolute bytes [abs0, abs1); release any
	// outbound segment whose dependencies are exhausted.
	abs0 := gc.start + seg*s.opt.SegSize
	abs1 := abs0 + st.Msg.Size
	lo, hi := segRange(abs0, abs1, s.opt.SegSize)
	for i := lo; i < hi && i < len(s.outSegs); i++ {
		if s.outDeps[i] > 0 {
			s.outDeps[i]--
			if s.outDeps[i] == 0 {
				s.releaseOut(i)
			}
		}
	}
}

// child returns the inbound child whose blob a receive from src fills.
func (s *gatherState) child(src int) *gatherChild {
	for _, gc := range s.children {
		if gc.rank == src {
			return gc
		}
	}
	panic(fmt.Sprintf("core: gather receive completed from rank %d, not a child", src))
}

func (s *gatherState) releaseOut(i int) {
	sg := s.outSegs[i]
	if s.blob != nil {
		sg.Msg.Data = s.blob[sg.Offset : sg.Offset+sg.Msg.Size]
	}
	s.up.offer(i, sg.Msg)
	s.up.pump()
}

// finish produces the result: at the root, the subtree-ordered blob
// permuted back to rank order; elsewhere, an empty descriptor.
func (s *gatherState) finish(contrib comm.Msg) comm.Msg {
	if s.c.Rank() != s.t.Root {
		return comm.Msg{Size: contrib.Size, Space: s.space}
	}
	out := comm.Msg{Size: s.blobSize, Space: s.space}
	if s.blob != nil {
		ordered := make([]byte, s.blobSize)
		for i, r := range s.order {
			copy(ordered[r*s.blk:(r+1)*s.blk], s.blob[i*s.blk:(i+1)*s.blk])
		}
		out.Data = ordered
	}
	return out
}
