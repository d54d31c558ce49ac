package core

import (
	"adapt/internal/comm"
	"adapt/internal/hwloc"
	"adapt/internal/trees"
)

// This file implements the paper's §4 heterogeneous extensions on top of
// the event-driven engine:
//
//   - BcastStaged (§4.1): node leaders receive inter-node traffic into an
//     explicit CPU staging buffer and serve inter-node and inter-socket
//     children straight from it, so the segment crosses the leader GPU's
//     PCIe link exactly once (the asynchronous flush) instead of once per
//     child — Figure 6c's lane separation.
//   - ReduceOffload (§4.2): reduction arithmetic runs on the GPU on
//     asynchronous streams; the CPU rank keeps progressing communication
//     while kernels execute.

// stagedChild wraps a child stream with the memory space its sends read
// from: host (staged) for slow-lane children, device for same-socket
// peers.
type stagedChild struct {
	*childStream
	space comm.MemSpace
}

type stagedBcastState struct {
	dc   comm.DeviceComm
	t    *trees.Tree
	opt  Options
	segs []comm.Segment

	children []*stagedChild
	leader   bool // receives into / serves from the CPU staging buffer
	parent   int

	nextPost     int
	recvPending  int
	sendPending  int
	flushPending int
}

// IsNodeLeader reports whether rank heads its node in tree t: it is the
// root or its parent lives on a different node. These are the ranks the
// paper gives an explicit CPU staging buffer.
func IsNodeLeader(topo *hwloc.Topology, t *trees.Tree, rank int) bool {
	p := t.Parent[rank]
	return p == -1 || topo.LevelBetween(rank, p) == hwloc.LevelNode
}

// BcastStaged performs the ADAPT broadcast on a GPU platform with the
// explicit-CPU-buffer optimization. topo must be the platform topology
// behind tree t. The payload logically lives in device memory; Data, when
// real, travels as with Bcast.
func BcastStaged(dc comm.DeviceComm, topo *hwloc.Topology, t *trees.Tree, msg comm.Msg, opt Options) comm.Msg {
	return StartBcastStaged(dc, topo, t, msg, opt).Wait()
}

// newStagedBcastState wires up the staged state machine and posts the
// initial window. opt must already be validated.
func newStagedBcastState(dc comm.DeviceComm, topo *hwloc.Topology, t *trees.Tree, msg comm.Msg, opt Options) *stagedBcastState {
	me := dc.Rank()
	s := &stagedBcastState{
		dc: dc, t: t, opt: opt,
		parent: t.Parent[me],
		leader: IsNodeLeader(topo, t, me),
	}
	tagf, sent := opt.tagger(comm.KindBcast), func() { s.sendPending-- }
	for _, ch := range t.Children[me] {
		space := comm.MemDevice
		if s.leader && topo.LevelBetween(me, ch) != hwloc.LevelCore {
			// Slow-lane children are served from the staging buffer.
			space = comm.MemHost
		}
		s.children = append(s.children, &stagedChild{childStream: newChildStream(dc, ch, opt.SendWindow, tagf, sent), space: space})
	}

	s.segs = comm.Segments(comm.Msg{Data: msg.Data, Size: msg.Size, Space: comm.MemDevice}, opt.SegSize)
	ns := len(s.segs)
	s.sendPending = ns * len(s.children)

	if me == t.Root {
		if s.leader {
			// Root caches each segment in CPU memory (one D2H crossing),
			// then serves slow-lane children from the cache; same-socket
			// children are served from device memory immediately.
			s.flushPending = ns
			for _, sg := range s.segs {
				sg := sg
				for _, cs := range s.children {
					if cs.space == comm.MemDevice {
						s.enqueue(cs, sg)
					}
				}
				r := dc.AsyncCopy(sg.Msg.Size, comm.MemDevice, comm.MemHost)
				dc.OnComplete(r, func(comm.Status) {
					s.flushPending--
					for _, cs := range s.children {
						if cs.space == comm.MemHost {
							s.enqueue(cs, sg)
						}
					}
				})
			}
		} else {
			for _, sg := range s.segs {
				for _, cs := range s.children {
					s.enqueue(cs, sg)
				}
			}
		}
	} else {
		s.recvPending = ns
		recvSpace := comm.MemDevice
		if s.leader {
			recvSpace = comm.MemHost
			// Each received segment is flushed host→device once.
			s.flushPending = ns
		}
		for i := 0; i < opt.RecvWindow && s.nextPost < ns; i++ {
			s.postRecv(recvSpace)
		}
	}
	return s
}

func (s *stagedBcastState) postRecv(space comm.MemSpace) {
	seg := s.nextPost
	s.nextPost++
	r := s.dc.IrecvIn(s.parent, s.opt.TagOf(comm.KindBcast, seg), space)
	s.dc.OnComplete(r, func(st comm.Status) { s.onSegment(seg, space, st) })
}

func (s *stagedBcastState) onSegment(seg int, space comm.MemSpace, st comm.Status) {
	s.recvPending--
	if s.nextPost < len(s.segs) {
		s.postRecv(space)
	}
	sg := s.segs[seg]
	sg.Msg = comm.Msg{Data: st.Msg.Data, Size: st.Msg.Size, Space: sg.Msg.Space}
	if !s.leader {
		for _, cs := range s.children {
			s.enqueue(cs, sg)
		}
		return
	}
	// Leader: slow-lane children are served straight from the staging
	// buffer; the flush releases same-socket (device-sourced) children.
	for _, cs := range s.children {
		if cs.space == comm.MemHost {
			s.enqueue(cs, sg)
		}
	}
	r := s.dc.AsyncCopy(sg.Msg.Size, comm.MemHost, comm.MemDevice)
	s.dc.OnComplete(r, func(comm.Status) {
		s.flushPending--
		for _, cs := range s.children {
			if cs.space == comm.MemDevice {
				s.enqueue(cs, sg)
			}
		}
	})
}

func (s *stagedBcastState) enqueue(cs *stagedChild, sg comm.Segment) {
	sg.Msg.Space = cs.space
	cs.offer(sg.Index, sg.Msg)
	cs.pump()
}

// reduceOffloadState extends the ADAPT reduce with GPU-offloaded folds.
type reduceOffloadState struct {
	dc  comm.DeviceComm
	t   *trees.Tree
	opt Options

	segs     []comm.Segment
	needed   []int // contributions + kernels outstanding per segment
	children []int
	nextPost []int

	up            *childStream
	recvPending   int
	sendPending   int
	kernelPending int
}

// ReduceOffload performs the ADAPT reduction with the fold executed by
// asynchronous GPU kernels (§4.2): a segment travels to the parent once
// every child contributed and every kernel for it retired; the CPU rank
// is never blocked on arithmetic.
func ReduceOffload(dc comm.DeviceComm, t *trees.Tree, contrib comm.Msg, opt Options) comm.Msg {
	return StartReduceOffload(dc, t, contrib, opt).Wait()
}

// newReduceOffloadState wires up the offloaded state machine and posts
// the initial windows. opt must already be validated.
func newReduceOffloadState(dc comm.DeviceComm, t *trees.Tree, contrib comm.Msg, opt Options) *reduceOffloadState {
	me := dc.Rank()
	s := &reduceOffloadState{
		dc: dc, t: t, opt: opt,
		segs:     comm.Segments(comm.Msg{Data: contrib.Data, Size: contrib.Size, Space: comm.MemDevice}, opt.SegSize),
		children: t.Children[me],
	}
	ns := len(s.segs)
	s.needed = make([]int, ns)
	for i := range s.needed {
		s.needed[i] = len(s.children)
	}
	s.nextPost = make([]int, len(s.children))
	s.recvPending = ns * len(s.children)
	if p := t.Parent[me]; p != -1 {
		s.up = newChildStream(dc, p, opt.SendWindow, opt.tagger(comm.KindReduce),
			func() { s.sendPending-- })
		s.sendPending = ns
	}
	for ci := range s.children {
		for i := 0; i < opt.RecvWindow && s.nextPost[ci] < ns; i++ {
			s.postRecv(ci)
		}
	}
	for seg := range s.needed {
		if s.needed[seg] == 0 {
			s.segReady(seg)
		}
	}
	return s
}

func (s *reduceOffloadState) postRecv(ci int) {
	seg := s.nextPost[ci]
	s.nextPost[ci]++
	r := s.dc.Irecv(s.children[ci], s.opt.TagOf(comm.KindReduce, seg))
	s.dc.OnComplete(r, func(st comm.Status) { s.onContribution(ci, seg, st) })
}

func (s *reduceOffloadState) onContribution(ci, seg int, st comm.Status) {
	s.recvPending--
	if s.nextPost[ci] < len(s.segs) {
		s.postRecv(ci)
	}
	if st.Msg.Data != nil && s.segs[seg].Msg.Data != nil {
		// Perform the fold for real (the GPU kernel in spirit).
		s.opt.Op.Apply(s.segs[seg].Msg.Data, st.Msg.Data, s.opt.Datatype)
	}
	s.kernelPending++
	kr := s.dc.DeviceReduce(st.Msg.Size)
	s.dc.OnComplete(kr, func(comm.Status) {
		s.kernelPending--
		s.needed[seg]--
		if s.needed[seg] == 0 {
			s.segReady(seg)
		}
	})
}

func (s *reduceOffloadState) segReady(seg int) {
	if s.up == nil {
		return
	}
	s.up.offer(seg, s.segs[seg].Msg)
	s.up.pump()
}
