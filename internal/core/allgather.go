package core

import (
	"fmt"

	"adapt/internal/comm"
)

// allgatherState is the event-driven ring allgather: every rank's block
// circulates around the ring, segmented; each (block, segment) parcel is
// forwarded to the right neighbour the moment it arrives from the left,
// independent of every other parcel. This is n−1 overlapping chain
// broadcasts sharing one send stream, with M wildcard receives posted
// ahead so parcels never arrive unexpected.
type allgatherState struct {
	c     comm.Comm
	opt   Options
	n     int
	blk   int
	nseg  int // segments per block
	left  int
	right int

	blob []byte // rank-ordered result (nil when elided)

	recvPending int
	sendPending int
	expect      []int // expected parcel ids in predicted arrival order
	nextPost    int

	me  int
	out *childStream // single ordered stream to the right neighbour
}

// Allgather shares every rank's equally sized block with all ranks using
// the event-driven ring. Returns the rank-ordered concatenation on every
// rank.
func Allgather(c comm.Comm, contrib comm.Msg, opt Options) comm.Msg {
	return StartAllgather(c, contrib, opt).Wait()
}

// StartAllgather begins a non-blocking event-driven ring allgather.
func StartAllgather(c comm.Comm, contrib comm.Msg, opt Options) *Op {
	opt = opt.validate()
	end := traceStart(c, comm.KindAllgather, opt, -1, contrib.Size)
	s := newAllgatherState(c, contrib, opt)
	return end(&Op{
		c:       c,
		pending: func() bool { return s.recvPending > 0 || s.sendPending > 0 },
		result: func() comm.Msg {
			return comm.Msg{Data: s.blob, Size: s.blk * s.n, Space: contrib.Space}
		},
	})
}

func newAllgatherState(c comm.Comm, contrib comm.Msg, opt Options) *allgatherState {
	n := c.Size()
	me := c.Rank()
	s := &allgatherState{
		c: c, opt: opt, n: n, blk: contrib.Size,
		nseg:  comm.NumSegments(contrib.Size, opt.SegSize),
		left:  (me - 1 + n) % n,
		right: (me + 1) % n,
		me:    me,
	}
	s.out = newChildStream(c, s.right, opt.SendWindow,
		func(pos int) comm.Tag {
			block := (s.me - pos/s.nseg + s.n) % s.n
			return s.opt.TagOf(comm.KindAllgather, block*s.nseg+pos%s.nseg)
		},
		func() { s.sendPending-- })
	if s.nseg*n > 1<<tagSegBitsBudget {
		panic(fmt.Sprintf("core: allgather parcel space %d×%d exceeds tag budget", n, s.nseg))
	}
	if contrib.Data != nil {
		// Own block is copied now, every foreign block by its parcels, so
		// the pooled buffer is fully overwritten before the result is read.
		s.blob = comm.GetBuf(s.blk * n)
		copy(s.blob[me*s.blk:], contrib.Data)
	}
	if n == 1 {
		return s
	}
	// Inbound: every foreign block's segments arrive from the left, in
	// roughly hop-distance order: block me−1 first, then me−2, … Post
	// exact-tag receives in that order, M ahead, so parcels almost always
	// find a posted receive (and merely pay the unexpected-copy cost, not
	// a correctness penalty, when they race ahead).
	s.recvPending = (n - 1) * s.nseg
	for d := 1; d < n; d++ {
		block := (me - d + n) % n
		for seg := 0; seg < s.nseg; seg++ {
			s.expect = append(s.expect, block*s.nseg+seg)
		}
	}
	// Outbound: every block except the right neighbour's own is forwarded
	// right exactly once: our own block + (n−2) foreign blocks.
	s.sendPending = (n - 1) * s.nseg

	// Seed: our own block enters the ring.
	for _, sg := range comm.Segments(contrib, opt.SegSize) {
		s.enqueue(me, sg)
	}
	for i := 0; i < opt.RecvWindow && s.nextPost < len(s.expect); i++ {
		s.postRecv()
	}
	return s
}

// tagSegBitsBudget bounds block×segment parcel ids to the tag field.
const tagSegBitsBudget = 24

func (s *allgatherState) postRecv() {
	id := s.expect[s.nextPost]
	s.nextPost++
	r := s.c.Irecv(s.left, s.opt.TagOf(comm.KindAllgather, id))
	s.c.OnComplete(r, func(st comm.Status) { s.onParcel(id, st) })
}

func (s *allgatherState) onParcel(id int, st comm.Status) {
	s.recvPending--
	if s.nextPost < len(s.expect) {
		s.postRecv()
	}
	block, seg := id/s.nseg, id%s.nseg
	off := block*s.blk + seg*s.opt.SegSize
	fwd := comm.Msg{Size: st.Msg.Size, Space: st.Msg.Space}
	if st.Msg.Data != nil {
		if s.blob == nil {
			// Lazy path (our own contribution was elided): our block's
			// region is never written, so it must read as zeros.
			s.blob = comm.GetBufZero(s.blk * s.n)
		}
		copy(s.blob[off:], st.Msg.Data)
		// Forwarding happens from the assembled blob; the receiver-owned
		// parcel buffer is dead.
		comm.PutBuf(st.Msg.Data)
		fwd.Data = s.blob[off : off+st.Msg.Size]
	}
	// Forward unless the right neighbour originated this block.
	if block != s.right {
		s.enqueue(block, comm.Segment{Index: seg, Msg: fwd})
	}
}

// enqueue offers a parcel to the outbound stream at its hop-distance
// position. Position order is what the right neighbour posts its receive
// window in, so issuing positions in order keeps the ring deadlock-free
// (see childStream).
func (s *allgatherState) enqueue(block int, sg comm.Segment) {
	d := (s.me - block + s.n) % s.n
	s.out.offer(d*s.nseg+sg.Index, sg.Msg)
	s.out.pump()
}
