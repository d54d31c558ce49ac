package core

import (
	"fmt"

	"adapt/internal/comm"
	"adapt/internal/hwloc"
	"adapt/internal/trees"
)

// This file provides the non-blocking (MPI_Ibcast/MPI_Ireduce-style)
// entry points to the ADAPT engine — the paper's §7 future work
// ("enabling non-blocking collective communications with asynchronous
// progress"). Because the engine is already a pure event-driven state
// machine, starting a collective just posts its initial operations and
// returns a handle; the state machine advances whenever the rank drives
// its progress engine for any reason (waiting on point-to-point traffic,
// another collective, or the handle itself). Several collectives may be
// in flight concurrently as long as their Options.Seq differ.

// Op is a handle to an in-flight non-blocking collective on one rank.
// Its progress and result come from the pending and result functions,
// or, when those are nil, from st (a state machine that embeds its Op
// and so costs no closures).
type Op struct {
	c       comm.Comm
	pending func() bool
	result  func() comm.Msg
	st      opState
}

// opState is a collective state machine that reports its own progress.
type opState interface {
	pending() bool
	result() comm.Msg
}

func (o *Op) isPending() bool {
	if o.pending != nil {
		return o.pending()
	}
	return o.st.pending()
}

// Done reports whether the rank's share of the collective has completed.
// It fires ready callbacks opportunistically but never blocks.
func (o *Op) Done() bool { return !o.isPending() }

// Wait drives the progress engine until the collective completes and
// returns its result (the received message for a broadcast, the folded
// message at the root for a reduction).
func (o *Op) Wait() comm.Msg {
	for o.isPending() {
		o.c.Progress()
	}
	if o.result != nil {
		return o.result()
	}
	return o.st.result()
}

// StartBcast begins a non-blocking ADAPT broadcast. The returned handle's
// Wait yields what Bcast would return.
func StartBcast(c comm.Comm, t *trees.Tree, msg comm.Msg, opt Options) *Op {
	opt = opt.validate()
	if t.Size() != c.Size() {
		panic(fmt.Sprintf("core: tree size %d != communicator size %d", t.Size(), c.Size()))
	}
	end := traceStart(c, comm.KindBcast, opt, t.Root, msg.Size)
	s := newBcastState(c, t, msg, opt)
	return end(&Op{
		c:       c,
		pending: func() bool { return s.recvPending > 0 || s.sendPending > 0 },
		result: func() comm.Msg {
			return comm.Msg{Data: s.outData, Size: s.total, Space: s.space}
		},
	})
}

// StartReduce begins a non-blocking ADAPT reduction. contrib.Data, when
// present, is folded in place — pass a private copy.
func StartReduce(c comm.Comm, t *trees.Tree, contrib comm.Msg, opt Options) *Op {
	opt = opt.validate()
	if t.Size() != c.Size() {
		panic(fmt.Sprintf("core: tree size %d != communicator size %d", t.Size(), c.Size()))
	}
	end := traceStart(c, comm.KindReduce, opt, t.Root, contrib.Size)
	s := newReduceState(c, t, contrib, opt)
	return end(&Op{
		c:       c,
		pending: func() bool { return s.recvPending > 0 || s.sendPending > 0 },
		result: func() comm.Msg {
			if c.Rank() == t.Root {
				return s.result(contrib)
			}
			return comm.Msg{Size: contrib.Size, Space: contrib.Space}
		},
	})
}

// StartBcastStaged begins a non-blocking staged GPU broadcast (§4.1).
func StartBcastStaged(dc comm.DeviceComm, topo *hwloc.Topology, t *trees.Tree, msg comm.Msg, opt Options) *Op {
	opt = opt.validate()
	if t.Size() != dc.Size() {
		panic(fmt.Sprintf("core: tree size %d != communicator size %d", t.Size(), dc.Size()))
	}
	end := traceStart(dc, comm.KindBcast, opt, t.Root, msg.Size)
	s := newStagedBcastState(dc, topo, t, msg, opt)
	return end(&Op{
		c: dc,
		pending: func() bool {
			return s.recvPending > 0 || s.sendPending > 0 || s.flushPending > 0
		},
		result: func() comm.Msg {
			return comm.Msg{Data: msg.Data, Size: msg.Size, Space: comm.MemDevice}
		},
	})
}

// StartReduceOffload begins a non-blocking GPU-offloaded reduction (§4.2).
func StartReduceOffload(dc comm.DeviceComm, t *trees.Tree, contrib comm.Msg, opt Options) *Op {
	opt = opt.validate()
	if t.Size() != dc.Size() {
		panic(fmt.Sprintf("core: tree size %d != communicator size %d", t.Size(), dc.Size()))
	}
	end := traceStart(dc, comm.KindReduce, opt, t.Root, contrib.Size)
	s := newReduceOffloadState(dc, t, contrib, opt)
	return end(&Op{
		c: dc,
		pending: func() bool {
			return s.recvPending > 0 || s.sendPending > 0 || s.kernelPending > 0
		},
		result: func() comm.Msg {
			return comm.Msg{Data: contrib.Data, Size: contrib.Size, Space: comm.MemDevice}
		},
	})
}
