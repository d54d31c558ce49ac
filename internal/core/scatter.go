package core

import (
	"fmt"

	"adapt/internal/comm"
	"adapt/internal/trees"
)

// Event-driven scatter and gather (§2.2.3: "In the scatter phase, a
// process may send data to multiple other processes which is similar to
// the MPI_Bcast discussed above and the same technique can be applied").
//
// Both operations move per-rank blocks of equal size along a tree in
// subtree (DFS) order. The pipelines are fine-grained: a rank forwards a
// child's byte range the moment the inbound segments covering it have
// arrived, rather than waiting for its whole subtree blob — the scatter
// analogue of ADAPT's segment independence. The dependency bookkeeping is
// interval arithmetic over segment grids (segRange/coverage below).

// segRange returns the half-open range [lo, hi) of segment indexes (grid
// step segSize) that overlap the byte interval [a, b).
func segRange(a, b, segSize int) (lo, hi int) {
	if b <= a {
		return 0, 0
	}
	return a / segSize, (b + segSize - 1) / segSize
}

// subtreeOrder returns the DFS listing of rank r's subtree in t.
func subtreeOrder(t *trees.Tree, r int) []int {
	out := []int{r}
	for _, c := range t.Children[r] {
		out = append(out, subtreeOrder(t, c)...)
	}
	return out
}

type scatterState struct {
	c        comm.Comm
	t        *trees.Tree
	opt      Options
	blk      int    // bytes per rank block
	blob     []byte // subtree blob (nil when payloads elided)
	blobSize int

	// Inbound (from parent): segment grid over the subtree blob.
	inSegs      int
	inNextPost  int
	recvPending int

	// Outbound: per child, the child's byte range and its send segments.
	children    []*scatterChild
	sendPending int

	mine comm.Msg
}

type scatterChild struct {
	*childStream
	start int            // child range start within my blob
	segs  []comm.Segment // child-relative segments (offsets child-local)
	deps  []int          // outstanding inbound segments per child segment
}

// Scatter distributes root's rank-ordered buffer of Size = blockSize ×
// P bytes so that rank r ends up with block r. At the root msg is the
// full buffer; elsewhere msg.Size must equal the full buffer size.
// Returns this rank's block.
func Scatter(c comm.Comm, t *trees.Tree, msg comm.Msg, opt Options) comm.Msg {
	return StartScatter(c, t, msg, opt).Wait()
}

// StartScatter begins a non-blocking event-driven scatter.
func StartScatter(c comm.Comm, t *trees.Tree, msg comm.Msg, opt Options) *Op {
	opt = opt.validate()
	n := c.Size()
	if t.Size() != n {
		panic(fmt.Sprintf("core: tree size %d != communicator size %d", t.Size(), n))
	}
	if msg.Size%n != 0 {
		panic(fmt.Sprintf("core: scatter buffer %dB not divisible by %d ranks", msg.Size, n))
	}
	end := traceStart(c, comm.KindScatter, opt, t.Root, msg.Size)
	s := newScatterState(c, t, msg, opt)
	return end(&Op{
		c:       c,
		pending: func() bool { return s.recvPending > 0 || s.sendPending > 0 },
		result:  func() comm.Msg { return s.mine },
	})
}

func newScatterState(c comm.Comm, t *trees.Tree, msg comm.Msg, opt Options) *scatterState {
	me := c.Rank()
	n := c.Size()
	blk := msg.Size / n
	order := subtreeOrder(t, me)
	s := &scatterState{c: c, t: t, opt: opt, blk: blk, blobSize: blk * len(order)}

	// Lay out children ranges: [my block][child0 subtree][child1 subtree]…
	off := blk
	tagf, sent := opt.tagger(comm.KindScatter), func() { s.sendPending-- }
	for _, ch := range t.Children[me] {
		span := blk * len(subtreeOrder(t, ch))
		sc := &scatterChild{childStream: newChildStream(c, ch, opt.SendWindow, tagf, sent), start: off}
		sc.segs = comm.Segments(comm.Msg{Size: span, Space: msg.Space}, opt.SegSize)
		sc.deps = make([]int, len(sc.segs))
		s.children = append(s.children, sc)
		s.sendPending += len(sc.segs)
		off += span
	}

	s.inSegs = comm.NumSegments(s.blobSize, opt.SegSize)
	if me == t.Root {
		// Permute the rank-ordered input into subtree order, once.
		if msg.Data != nil {
			s.blob = make([]byte, s.blobSize)
			for i, r := range order {
				copy(s.blob[i*blk:(i+1)*blk], msg.Data[r*blk:(r+1)*blk])
			}
		}
		// Everything is present: all child segments are ready.
		for _, sc := range s.children {
			for i := range sc.segs {
				s.releaseChildSeg(sc, i)
			}
		}
	} else {
		s.recvPending = s.inSegs
		// Dependency counts: child segment [a,b) needs inbound grid segs.
		for _, sc := range s.children {
			for i, sg := range sc.segs {
				lo, hi := segRange(sc.start+sg.Offset, sc.start+sg.Offset+sg.Msg.Size, opt.SegSize)
				sc.deps[i] = hi - lo
			}
		}
		for i := 0; i < opt.RecvWindow && s.inNextPost < s.inSegs; i++ {
			s.postRecv()
		}
	}
	s.finishMine(msg.Space)
	return s
}

// finishMine materializes this rank's own block descriptor (for the root
// it is immediately available; for others it fills in as data arrives —
// the block bytes live at blob[0:blk]).
func (s *scatterState) finishMine(space comm.MemSpace) {
	s.mine = comm.Msg{Size: s.blk, Space: space}
	if s.blob != nil {
		s.mine.Data = s.blob[:s.blk]
	}
}

func (s *scatterState) postRecv() {
	seg := s.inNextPost
	s.inNextPost++
	r := s.c.Irecv(s.t.Parent[s.c.Rank()], s.opt.TagOf(comm.KindScatter, seg))
	s.c.OnComplete(r, func(st comm.Status) { s.onInbound(seg, st) })
}

func (s *scatterState) onInbound(seg int, st comm.Status) {
	s.recvPending--
	if s.inNextPost < s.inSegs {
		s.postRecv()
	}
	if st.Msg.Data != nil {
		if s.blob == nil {
			s.blob = make([]byte, s.blobSize)
			s.finishMine(st.Msg.Space)
		}
		copy(s.blob[seg*s.opt.SegSize:], st.Msg.Data)
	}
	// Release child segments whose coverage is now complete.
	for _, sc := range s.children {
		for i, sg := range sc.segs {
			if sc.deps[i] == 0 {
				continue
			}
			gl, gh := segRange(sc.start+sg.Offset, sc.start+sg.Offset+sg.Msg.Size, s.opt.SegSize)
			if seg >= gl && seg < gh {
				sc.deps[i]--
				if sc.deps[i] == 0 {
					s.releaseChildSeg(sc, i)
				}
			}
		}
	}
}

// releaseChildSeg marks one child segment ready in its stream.
func (s *scatterState) releaseChildSeg(sc *scatterChild, i int) {
	sg := sc.segs[i]
	if s.blob != nil {
		sg.Msg.Data = s.blob[sc.start+sg.Offset : sc.start+sg.Offset+sg.Msg.Size]
	}
	sc.offer(i, sg.Msg)
	sc.pump()
}
