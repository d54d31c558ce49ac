// Package adaptive is the decision layer that makes ADAPT adaptive: given
// the machine topology, the collective kind and the message size, it
// picks the communication tree for each hardware level, the pipeline
// segment size and the in-flight windows — the role Open MPI's tuned
// decision tables play, but topology- and operation-aware (paper §2.2.4:
// "it is easy to adapt the trees based on network topology", §7: per-level
// algorithm selection by "number of processes, message size, available
// bandwidth").
//
// The rules are the ones calibrated in this repository's experiments (see
// DESIGN.md "Calibration decisions"):
//
//   - Latency regime (small messages): unsegmented binomial trees
//     everywhere — log-depth minimizes the α terms; pipelining has
//     nothing to pipeline.
//   - Bandwidth regime (large messages): pipelined chains inside nodes
//     (homogeneous lanes, minimal per-rank work), log-depth trees across
//     node leaders: binomial for broadcast; binary for reductions, whose
//     γ·m fold runs once per child per segment, so bounded fan-in avoids
//     a root pile-up.
//   - Resilience: log-depth inter-node trees keep few ranks on any
//     dependency path, bounding noise exposure (Figure 7). The all-chain
//     configuration is only chosen when the caller asks for maximum
//     bandwidth explicitly (Goal == MaxBandwidth), e.g. the strong-scaling
//     study (Figure 10).
package adaptive

import (
	"fmt"

	"adapt/internal/comm"
	"adapt/internal/core"
	"adapt/internal/hwloc"
	"adapt/internal/trees"
)

// Goal biases tie-breaking decisions.
type Goal int

const (
	// Balanced is the default: bandwidth with bounded noise exposure.
	Balanced Goal = iota
	// MaxBandwidth prefers the deepest pipelines (all-chain trees).
	MaxBandwidth
	// MinLatency prefers the shallowest trees even for larger payloads.
	MinLatency
)

func (g Goal) String() string {
	switch g {
	case Balanced:
		return "balanced"
	case MaxBandwidth:
		return "max-bandwidth"
	case MinLatency:
		return "min-latency"
	}
	return fmt.Sprintf("Goal(%d)", int(g))
}

// Choice is a complete collective configuration.
type Choice struct {
	Tree    trees.TopoConfig
	SegSize int
	// Windows: N concurrent sends per child, M posted receives (M ≥ N).
	SendWindow int
	RecvWindow int
}

// Options converts the choice into engine options.
func (ch Choice) Options(seq int) core.Options {
	opt := core.DefaultOptions()
	opt.SegSize = ch.SegSize
	opt.SendWindow = ch.SendWindow
	opt.RecvWindow = ch.RecvWindow
	opt.Seq = seq
	return opt
}

// Size regime boundaries (bytes).
const (
	latencyBound = 16 << 10  // ≤ 16 KB: latency regime
	mediumBound  = 512 << 10 // ≤ 512 KB: medium pipeline
	hugeBound    = 16 << 20  // ≥ 16 MB: coarse segments
)

func builder(name string) trees.Builder {
	b, err := trees.ByName(name)
	if err != nil {
		panic(err)
	}
	return b
}

// Decide returns the configuration for one collective call.
func Decide(topo *hwloc.Topology, kind comm.CollKind, size int, goal Goal) Choice {
	chain := builder("chain")
	binomial := builder("binomial")
	binary := builder("binary")

	// Latency regime: shallow trees, one segment, minimal windows.
	if size <= latencyBound || goal == MinLatency && size <= mediumBound {
		return Choice{
			Tree:       trees.TopoConfig{InterNode: binomial, InterSocket: binomial, IntraSocket: binomial},
			SegSize:    size + 1,
			SendWindow: 1,
			RecvWindow: 2,
		}
	}

	// Bandwidth regimes: pipelined chains inside nodes.
	seg := 64 << 10
	switch {
	case size >= hugeBound:
		seg = 512 << 10
	case size > mediumBound:
		seg = 128 << 10
	}
	inter := binomial
	if kind == comm.KindReduce || kind == comm.KindAllreduce {
		inter = binary // bounded fan-in for the γ·m folds
	}
	if goal == MaxBandwidth {
		inter = chain
	}
	cfg := trees.TopoConfig{InterNode: inter, InterSocket: chain, IntraSocket: chain}

	// Window depth: enough in-flight segments to cover the pipeline, but
	// no deeper than the segment count.
	n := 2
	if size >= hugeBound {
		n = 4
	}
	m := 2 * n
	if ns := comm.NumSegments(size, seg); ns < m {
		m = ns
		if n > m {
			n = m
		}
	}
	if n < 1 {
		n = 1
	}
	if m < n {
		m = n
	}
	return Choice{Tree: cfg, SegSize: seg, SendWindow: n, RecvWindow: m}
}

// Bcast runs an ADAPT broadcast with an automatically decided
// configuration.
func Bcast(c comm.Comm, topo *hwloc.Topology, root int, msg comm.Msg, seq int, goal Goal) comm.Msg {
	ch := Decide(topo, comm.KindBcast, msg.Size, goal)
	return core.Bcast(c, trees.Topology(topo, root, ch.Tree), msg, ch.Options(seq))
}

// Reduce runs an ADAPT reduction with an automatically decided
// configuration. contrib.Data, when present, is folded in place.
func Reduce(c comm.Comm, topo *hwloc.Topology, root int, contrib comm.Msg, seq int, goal Goal) comm.Msg {
	ch := Decide(topo, comm.KindReduce, contrib.Size, goal)
	return core.Reduce(c, trees.Topology(topo, root, ch.Tree), contrib, ch.Options(seq))
}

// Allreduce runs the fused ADAPT allreduce with an automatically decided
// configuration (the tree must be rooted consistently; rank 0 is used).
// contrib.Data, when present, is the result buffer on every rank.
func Allreduce(c comm.Comm, topo *hwloc.Topology, contrib comm.Msg, seq int, goal Goal) comm.Msg {
	ch := Decide(topo, comm.KindAllreduce, contrib.Size, goal)
	return core.Allreduce(c, trees.Topology(topo, 0, ch.Tree), contrib, ch.Options(seq))
}
