package netmodel

import (
	"fmt"
	"time"

	"adapt/internal/comm"
	"adapt/internal/hwloc"
	"adapt/internal/pool"
	"adapt/internal/sim"
)

// Net instantiates a platform's contended facilities on a simulation
// kernel and moves messages across them.
//
// Facility inventory:
//   - nicTx/nicRx: one injection and one delivery queue per node (the
//     InfiniBand/Aries/Omni-Path adapter, paper §4: "both approaches
//     occupy NICs").
//   - qpi: one inter-socket link per node.
//   - cpu: one shared-memory copy engine per rank (the sending core does
//     the memcpy; distinct core pairs copy concurrently, while one core
//     streaming to several peers serializes on its own engine).
//   - gpuOut/gpuIn: each GPU's PCIe x16 link, per direction. Every byte
//     leaving a rank's GPU crosses gpuOut[rank]; every byte entering
//     crosses gpuIn[rank]. This is the lane the paper's node leader
//     saturates in Figure 6a and relieves with the explicit CPU staging
//     buffer in Figure 6c.
//   - gpuCalc: each GPU's compute engine for offloaded reductions (§4.2).
//
// A transfer runs in two phases so the receiver's buffer location can
// differ from the sender's guess (the staging optimization receives
// GPU-bound traffic into host memory):
//
//	StartTransfer: source-side + fabric hops → arrival at the destination
//	               rank's host boundary.
//	Deliver:       destination-side PCIe hop if the receive buffer is in
//	               device memory.
type Net struct {
	K *sim.Kernel
	P *Platform

	// Effective facility rates: the Params per-unit rates in exact mode,
	// multiplied by the class's unit count when Params.Aggregate is set.
	shmBw, qpiBw, netBw, pcieBw, nvlBw, gpuCalcBw Rate

	nicTx, nicRx []*sim.Resource
	qpi          []*sim.Resource
	cpu          []*sim.Resource
	gpuOut       []*sim.Resource
	gpuIn        []*sim.Resource
	gpuCalc      []*sim.Resource
	nvlOut       []*sim.Resource
	nvlIn        []*sim.Resource

	// transfers recycles transfer records. It lives on the Net, not in
	// a global: independent kernels run concurrently.
	transfers pool.List[transfer]
}

// at returns facility i of class s. An aggregated class holds a single
// shared facility that every index maps to.
func at(s []*sim.Resource, i int) *sim.Resource {
	if len(s) == 1 {
		return s[0]
	}
	return s[i]
}

// NewNet builds the facility set for platform p on kernel k: one
// resource per node/rank per class, or — with p.Aggregate — one shared
// resource per class at the class's aggregate bandwidth (see
// Params.Aggregate for the fidelity tradeoff).
func NewNet(k *sim.Kernel, p *Platform) *Net {
	t := p.Topo
	n := &Net{K: k, P: p,
		shmBw: p.ShmBw, qpiBw: p.QpiBw, netBw: p.NetBw,
		pcieBw: p.PCIeBw, nvlBw: p.NVLinkBw, gpuCalcBw: p.ReduceGPUBw,
	}
	n.transfers = pool.List[transfer]{
		New: func() *transfer {
			t := &transfer{n: n}
			t.advanceFn = t.advance
			return t
		},
		Reset: func(t *transfer) { *t = transfer{n: t.n, advanceFn: t.advanceFn} },
	}
	if p.Aggregate {
		nodes, ranks := Rate(t.Nodes), Rate(t.Size())
		n.netBw *= nodes
		n.qpiBw *= nodes
		n.shmBw *= ranks
		n.pcieBw *= ranks
		n.nvlBw *= ranks
		n.gpuCalcBw *= ranks
		one := func(name string) []*sim.Resource {
			return []*sim.Resource{k.NewResource(name)}
		}
		n.nicTx, n.nicRx, n.qpi = one("nic-tx/*"), one("nic-rx/*"), one("qpi/*")
		n.cpu = one("cpu/*")
		if t.HasGPUs() {
			n.gpuOut, n.gpuIn, n.gpuCalc = one("gpu-out/*"), one("gpu-in/*"), one("gpu-calc/*")
			if p.NVLinkBw > 0 {
				n.nvlOut, n.nvlIn = one("nvl-out/*"), one("nvl-in/*")
			}
		}
		return n
	}
	for node := 0; node < t.Nodes; node++ {
		n.nicTx = append(n.nicTx, k.NewResource(fmt.Sprintf("nic-tx/%d", node)))
		n.nicRx = append(n.nicRx, k.NewResource(fmt.Sprintf("nic-rx/%d", node)))
		n.qpi = append(n.qpi, k.NewResource(fmt.Sprintf("qpi/%d", node)))
	}
	for r := 0; r < t.Size(); r++ {
		n.cpu = append(n.cpu, k.NewResource(fmt.Sprintf("cpu/%d", r)))
	}
	if t.HasGPUs() {
		for r := 0; r < t.Size(); r++ {
			n.gpuOut = append(n.gpuOut, k.NewResource(fmt.Sprintf("gpu-out/%d", r)))
			n.gpuIn = append(n.gpuIn, k.NewResource(fmt.Sprintf("gpu-in/%d", r)))
			n.gpuCalc = append(n.gpuCalc, k.NewResource(fmt.Sprintf("gpu-calc/%d", r)))
			if p.NVLinkBw > 0 {
				n.nvlOut = append(n.nvlOut, k.NewResource(fmt.Sprintf("nvl-out/%d", r)))
				n.nvlIn = append(n.nvlIn, k.NewResource(fmt.Sprintf("nvl-in/%d", r)))
			}
		}
	}
	return n
}

// Facilities reports the number of contended resources backing the net
// (O(classes) in aggregate mode, O(nodes+ranks) otherwise).
func (n *Net) Facilities() int {
	return len(n.nicTx) + len(n.nicRx) + len(n.qpi) + len(n.cpu) +
		len(n.gpuOut) + len(n.gpuIn) + len(n.gpuCalc) + len(n.nvlOut) + len(n.nvlIn)
}

// ResolveSpace maps MemDefault to the platform's payload home.
func (n *Net) ResolveSpace(s comm.MemSpace) comm.MemSpace {
	if s != comm.MemDefault {
		return s
	}
	if n.P.Topo.HasGPUs() {
		return comm.MemDevice
	}
	return comm.MemHost
}

type hop struct {
	r  *sim.Resource
	bw Rate
}

// maxHops bounds a route: GPU egress, NIC injection, NIC delivery.
const maxHops = 3

// transfer is one message crossing its hop chain. It runs as a single
// event handler bound once per record: after the route latency and then
// at the end of every hop. Records recycle through the owning Net's
// free-list, so steady-state transfers allocate nothing.
type transfer struct {
	n     *Net
	hops  [maxHops]hop
	nhops int
	next  int // index of the next hop to start
	size  int

	afterFirst, afterLast func()
	advanceFn             func() // t.advance, bound once
}

// newTransfer draws a record from the free-list.
func (n *Net) newTransfer(size int, afterFirst, afterLast func()) *transfer {
	t := n.transfers.Get()
	t.size, t.afterFirst, t.afterLast = size, afterFirst, afterLast
	return t
}

func (t *transfer) push(r *sim.Resource, bw Rate) {
	t.hops[t.nhops] = hop{r, bw}
	t.nhops++
}

// advance is the transfer's event handler: afterFirst fires at the end of
// the first hop (or at once when there are none), afterLast at the end
// of the last. The record returns to the free-list before afterLast
// runs, so that callback may start the next transfer.
func (t *transfer) advance() {
	if f := t.afterFirst; f != nil && (t.next > 0 || t.nhops == 0) {
		t.afterFirst = nil
		f()
	}
	if t.next == t.nhops {
		last := t.afterLast
		t.n.transfers.Put(t)
		if last != nil {
			last()
		}
		return
	}
	h := t.hops[t.next]
	t.next++
	t.n.K.At(h.r.Use(h.bw.Over(t.size)), t.advanceFn)
}

// nvlinkPeer reports whether src→dst traffic may ride NVLink (same
// socket, NVLink present).
func (n *Net) nvlinkPeer(src, dst int) bool {
	return n.P.NVLinkBw > 0 && src != dst &&
		n.P.Topo.LevelBetween(src, dst) == hwloc.LevelCore
}

// sendRoute loads t with the hops from src's buffer to dst's host
// boundary and returns the route latency.
func (n *Net) sendRoute(t *transfer, src, dst int, srcSpace comm.MemSpace) time.Duration {
	topo := n.P.Topo
	level := topo.LevelBetween(src, dst)
	var alpha time.Duration
	if n.ResolveSpace(srcSpace) == comm.MemDevice {
		if n.nvlinkPeer(src, dst) {
			// Peer traffic leaves over the GPU's NVLink port.
			t.push(at(n.nvlOut, src), n.nvlBw)
			return n.P.NVLinkAlpha
		}
		alpha += n.P.PCIeAlpha
		t.push(at(n.gpuOut, src), n.pcieBw)
	}
	switch level {
	case hwloc.LevelSelf: // local copy, no fabric
		alpha += n.P.ShmAlpha
	case hwloc.LevelCore: // intra-socket
		alpha += n.P.ShmAlpha
		if t.nhops == 0 { // host→…: the sender core's copy engine
			t.push(at(n.cpu, src), n.shmBw)
		}
	case hwloc.LevelSocket: // inter-socket
		alpha += n.P.QpiAlpha
		t.push(at(n.qpi, topo.NodeOf(src)), n.qpiBw)
	default: // inter-node
		alpha += n.P.NetAlpha
		t.push(at(n.nicTx, topo.NodeOf(src)), n.netBw)
		t.push(at(n.nicRx, topo.NodeOf(dst)), n.netBw)
	}
	return alpha
}

// StartTransfer moves size bytes from src toward dst starting now.
// onSent fires when the source-side buffer is reusable (end of the first
// hop); onArrive fires when the payload reaches dst's host boundary.
func (n *Net) StartTransfer(src, dst, size int, srcSpace comm.MemSpace, onSent, onArrive func()) {
	t := n.newTransfer(size, onSent, onArrive)
	n.K.Schedule(n.sendRoute(t, src, dst, srcSpace), t.advanceFn)
}

// Deliver lands an arrived payload in dst's receive buffer, crossing the
// destination GPU's PCIe link when the buffer lives in device memory.
// done fires when the payload is in place.
func (n *Net) Deliver(dst, size int, dstSpace comm.MemSpace, done func()) {
	n.DeliverFrom(-1, dst, size, dstSpace, done)
}

// DeliverFrom is Deliver with the source rank known, so NVLink peer
// traffic can ride the NVLink ingress port instead of PCIe. src may be
// -1 when unknown (forces the PCIe path).
func (n *Net) DeliverFrom(src, dst, size int, dstSpace comm.MemSpace, done func()) {
	if n.ResolveSpace(dstSpace) == comm.MemDevice {
		t := n.newTransfer(size, nil, done)
		if src >= 0 && n.nvlinkPeer(src, dst) {
			t.push(at(n.nvlIn, dst), n.nvlBw)
			n.K.Schedule(0, t.advanceFn)
			return
		}
		t.push(at(n.gpuIn, dst), n.pcieBw)
		n.K.Schedule(n.P.PCIeAlpha, t.advanceFn)
		return
	}
	n.K.Schedule(0, done)
}

// ControlLatency returns the one-way latency of a zero-byte control
// message between two ranks (rendezvous RTS/CTS).
func (n *Net) ControlLatency(src, dst int) time.Duration {
	switch n.P.Topo.LevelBetween(src, dst) {
	case hwloc.LevelSelf, hwloc.LevelCore:
		return n.P.ShmAlpha
	case hwloc.LevelSocket:
		return n.P.QpiAlpha
	default:
		return n.P.NetAlpha
	}
}

// GPUReduce runs an offloaded reduction of n bytes on rank's GPU compute
// engine; done fires at kernel completion (paper §4.2).
func (n *Net) GPUReduce(rank, size int, done func()) {
	if n.gpuCalc == nil {
		panic("netmodel: GPUReduce on a CPU platform")
	}
	end := at(n.gpuCalc, rank).Use(n.gpuCalcBw.Over(size))
	n.K.At(end, done)
}

// AsyncCopy runs an asynchronous host↔device copy of n bytes over rank's
// PCIe link; done fires at completion (the §4.1 staging flush).
func (n *Net) AsyncCopy(rank, size int, from, to comm.MemSpace, done func()) {
	if n.gpuIn == nil {
		panic("netmodel: AsyncCopy on a CPU platform")
	}
	var r *sim.Resource
	switch {
	case from == comm.MemHost && to == comm.MemDevice:
		r = at(n.gpuIn, rank)
	case from == comm.MemDevice && to == comm.MemHost:
		r = at(n.gpuOut, rank)
	default:
		panic(fmt.Sprintf("netmodel: AsyncCopy %v→%v", from, to))
	}
	n.K.Schedule(n.P.PCIeAlpha, func() {
		end := r.Use(n.pcieBw.Over(size))
		n.K.At(end, done)
	})
}

// CPUCost returns the blocking local-work duration for kind over n bytes.
func (n *Net) CPUCost(size int, kind comm.ComputeKind) time.Duration {
	switch kind {
	case comm.ComputeReduce:
		return n.P.ReduceCPUBw.Over(size)
	case comm.ComputeCopy:
		return n.P.CopyBw.Over(size)
	case comm.ComputeApp:
		return n.P.ReduceCPUBw.Over(size)
	default:
		panic("netmodel: unknown compute kind")
	}
}
