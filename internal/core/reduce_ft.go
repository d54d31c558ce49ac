package core

import (
	"adapt/internal/comm"
	"adapt/internal/trace"
	"adapt/internal/trees"
)

// ReduceFT is the fail-stop fault-tolerant ADAPT reduction. Without
// crash rules armed it is exactly Reduce (on a private copy of the
// contribution, plus an all-true survivor mask); with them, the root's
// result folds exactly the survivor set's contributions and every live
// rank reports the committed mask. A dead root aborts with
// *faults.RankFailedError on every survivor.
//
// Unlike the broadcast, a reduction cannot repair in place: an interior
// rank's accumulator already mixes contributions from subtrees that a
// healed tree reassigns, so partial folds cannot be reused without
// double-counting. Instead every confirmed death restarts the operation
// as a new epoch over the healed tree: each rank refolds from a pristine
// copy of its own contribution, and epoch-tagged segments keep late
// traffic from a previous epoch out of the new fold (stale receives
// drain as sponges). Processing one death per restart keeps every rank's
// epoch count identical — masks, tags, and trees stay in agreement.
func ReduceFT(c comm.Comm, t *trees.Tree, contrib comm.Msg, opt Options) FTResult {
	return StartReduceFT(c, t, contrib, opt).WaitFT()
}

// StartReduceFT begins a non-blocking ReduceFT; the handle's WaitFT
// yields what ReduceFT returns. Without crash rules armed it is
// StartReduce on a private copy of the contribution.
func StartReduceFT(c comm.Comm, t *trees.Tree, contrib comm.Msg, opt Options) *Op {
	fs, ok := failStopOf(c)
	if !ok {
		if contrib.Data != nil {
			// Reduce folds in place; keep the caller's buffer pristine.
			contrib.Data = append([]byte(nil), contrib.Data...)
		}
		return StartReduce(c, t, contrib, opt)
	}
	opt = opt.validate()
	end := traceStart(c, comm.KindReduce, opt, t.Root, contrib.Size)
	s := &reduceFT{openRecvs: make(map[comm.Request]int)}
	s.ftBase = newFTBase(c, fs, t, contrib, opt, s)
	if contrib.Data != nil {
		s.base = append([]byte(nil), contrib.Data...)
	}
	s.startEpoch()
	s.watch()
	s.step()
	return end(&s.op)
}

// reduceFT is the per-rank fault-tolerant reduce state machine. All
// mutation happens on the owner goroutine, in callbacks.
type reduceFT struct {
	ftBase

	base  []byte // pristine private copy of the local contribution
	epoch int

	// Current-epoch state (rebuilt by startEpoch).
	working  []byte // fold accumulator; stale epochs leak theirs (sends alias it)
	segs     []comm.Segment
	needed   []int
	children []int
	nextPost []int
	parent   int
	upReady  map[int]comm.Msg
	upNext   int
	upFlight int
	ready    int

	// openRecvs (receive → child) spans epochs: stale receives stay
	// posted as sponges for a live child's old in-flight sends until that
	// child's FIN.
	openRecvs map[comm.Request]int
}

func (s *reduceFT) recvsOpen() bool { return len(s.openRecvs) != 0 }

func (s *reduceFT) payload() []byte {
	if s.rank == s.t.Root {
		return s.working
	}
	return nil
}

// epochOpt carries the epoch in the tag sequence so stale segments can
// never fold into the wrong epoch.
func (s *reduceFT) epochOpt() Options {
	o := s.opt
	o.Seq = s.opt.Seq + s.epoch
	return o
}

// startEpoch (re)builds the fold over the current healed tree from the
// pristine contribution.
func (s *reduceFT) startEpoch() {
	trace.Emit(s.c, trace.Record{Kind: trace.Epoch, Peer: -1,
		Tag: s.epochOpt().TagOf(comm.KindReduce, 0), Size: s.epoch})
	cur := healed(s.t, s.dead)
	s.working = nil
	if s.base != nil {
		s.working = comm.GetBuf(s.total)
		copy(s.working, s.base)
	}
	s.segs = comm.Segments(comm.Msg{Data: s.working, Size: s.total, Space: s.space}, s.opt.SegSize)
	s.children = cur.Children[s.rank]
	s.parent = cur.Parent[s.rank]
	s.needed = make([]int, s.ns)
	for i := range s.needed {
		s.needed[i] = len(s.children)
	}
	s.nextPost = make([]int, len(s.children))
	// The parent posts its receive window from us the moment this epoch's
	// tree names it, even if we never send a byte before the next restart:
	// it will wait for our FIN, so it must be a FIN target regardless.
	if s.parent != -1 {
		s.sentTo[s.parent] = true
	}
	s.upReady = make(map[int]comm.Msg)
	s.upNext = 0
	s.upFlight = 0
	s.ready = 0
	for ci := range s.children {
		for i := 0; i < s.opt.RecvWindow && s.nextPost[ci] < s.ns; i++ {
			s.postRecv(ci)
		}
	}
	for seg := range s.needed {
		if s.needed[seg] == 0 {
			s.segReady(seg)
		}
	}
}

// ---- receive side ----

// cancelRecvs retracts every receive still open toward child. One that
// already matched stays open until its callback lands (data or error).
func (s *reduceFT) cancelRecvs(child int) {
	for req, ch := range s.openRecvs {
		if ch == child && s.fs.CancelRecv(req) {
			delete(s.openRecvs, req)
		}
	}
}

func (s *reduceFT) postRecv(ci int) {
	seg := s.nextPost[ci]
	s.nextPost[ci]++
	child := s.children[ci]
	epoch := s.epoch
	req := s.c.Irecv(child, s.epochOpt().TagOf(comm.KindReduce, seg))
	s.openRecvs[req] = child
	s.on(req, func(st comm.Status) {
		delete(s.openRecvs, req)
		s.onContribution(epoch, ci, seg, st)
	})
}

func (s *reduceFT) onContribution(epoch, ci, seg int, st comm.Status) {
	if epoch != s.epoch || s.finishing {
		// Sponge: a straggler from a restarted epoch (or post-commit). Its
		// payload is discarded — the new epoch refolds from scratch.
		if st.Msg.Data != nil {
			comm.PutBuf(st.Msg.Data)
		}
		return
	}
	if st.Err != nil {
		// The sender died mid-transfer; its confirmation restarts the epoch.
		return
	}
	if st.Msg.Data != nil {
		if s.segs[seg].Msg.Data != nil {
			s.opt.Op.Apply(s.segs[seg].Msg.Data, st.Msg.Data, s.opt.Datatype)
		}
		comm.PutBuf(st.Msg.Data)
	}
	s.c.Compute(s.opt.ReduceCost(st.Msg.Size), comm.ComputeReduce)
	if s.nextPost[ci] < s.ns {
		s.postRecv(ci)
	}
	s.needed[seg]--
	if s.needed[seg] == 0 {
		s.segReady(seg)
	}
}

// ---- send side ----

// segReady forwards a fully folded segment toward the root, or counts it
// at the root — where the last one commits the epoch.
func (s *reduceFT) segReady(seg int) {
	s.ready++
	if s.parent == -1 {
		if s.ready == s.ns {
			s.commit()
		}
		return
	}
	s.upReady[seg] = s.segs[seg].Msg
	s.pumpUp()
}

// pumpUp issues folded segments to the current parent in strict index
// order within the send window, epoch-gated so a completion from a
// restarted epoch never re-drives a stale pipeline.
func (s *reduceFT) pumpUp() {
	if s.finishing {
		return
	}
	epoch := s.epoch
	for s.upFlight < s.opt.SendWindow {
		msg, ok := s.upReady[s.upNext]
		if !ok {
			return
		}
		delete(s.upReady, s.upNext)
		seg := s.upNext
		s.upNext++
		s.upFlight++
		s.send(s.parent, s.epochOpt().TagOf(comm.KindReduce, seg), msg, true, func() {
			if epoch == s.epoch {
				s.upFlight--
				s.pumpUp()
			}
		})
	}
}

// ---- failure handling ----

func (s *reduceFT) onDeath(r int) {
	if s.dead[r] {
		return
	}
	// Receives from the dead rank can never match again, and annihilation
	// guarantees no announcement of its is parked here: cancel them all.
	s.cancelRecvs(r)
	s.forget(r)
	if r == s.t.Root {
		s.abort(r, comm.KindReduce)
		return
	}
	if s.finishing {
		return
	}
	// Restart: one death per epoch keeps every rank's epoch count — and
	// therefore tags, trees, and masks — in agreement.
	s.epoch++
	s.startEpoch()
}

// ---- teardown (quiesce handshake) ----

func (s *reduceFT) teardown() {
	s.finishing = true
	// Current-epoch receives from live children all matched by commit time
	// (the root's fold transitively required them); what remains are stale
	// sponges for old in-flight sends. Each live child FINs us when its
	// sends have drained; only then is cancelling its leftovers safe.
	open := make([]bool, s.n)
	for _, child := range s.openRecvs {
		open[child] = true
	}
	for child := 0; child < s.n; child++ { // rank order: posting receives is schedule-visible
		if !open[child] {
			continue
		}
		if s.dead[child] {
			s.cancelRecvs(child)
			continue
		}
		if _, posted := s.finRecvs[child]; !posted {
			ch := child
			s.awaitFin(ch, func() { s.cancelRecvs(ch) })
		}
	}
}
