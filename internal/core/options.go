// Package core implements the ADAPT collective engine — the paper's
// primary contribution (§2.2): tree-based collectives expressed as
// event-driven state machines over non-blocking point-to-point operations.
//
// Instead of Wait/Waitall barriers between pipeline steps, the completion
// of each low-level operation triggers a callback that posts the next
// dependent operation and nothing else. Two structural properties follow:
//
//   - Segment independence: every rank keeps a window of N concurrent
//     in-flight sends per child, drawing the next segment from a shared
//     pool as each completes, so one delayed segment never stalls others.
//   - Child independence: each child's window advances on its own, so a
//     slow child never delays its siblings — noise cannot reach them.
//
// Receives keep a deeper window of M > N posted operations per parent so
// arriving segments always find a matching receive and never pay the
// unexpected-message penalty (§2.2.1).
//
// The engine is generic over comm.Comm and therefore runs identically on
// the live goroutine runtime and on the discrete-event simulator.
package core

import (
	"fmt"

	"adapt/internal/comm"
)

// Default window and segmentation parameters. The paper sets M > N; the
// defaults follow Open MPI's ADAPT module scale (a few concurrent
// operations per peer, 128 KB pipeline segments).
const (
	DefaultSegSize    = 128 << 10
	DefaultSendWindow = 2
	DefaultRecvWindow = 4
)

// Options tunes one ADAPT collective invocation.
type Options struct {
	// SegSize is the pipeline segment size in bytes.
	SegSize int
	// SendWindow (the paper's N) is the number of concurrent in-flight
	// sends kept per child.
	SendWindow int
	// RecvWindow (the paper's M) is the number of concurrent posted
	// receives kept per parent. Should exceed SendWindow.
	RecvWindow int
	// Seq disambiguates concurrent/back-to-back collectives in tags.
	Seq int
	// Op and Datatype apply to reductions only.
	Op       comm.Op
	Datatype comm.Datatype
	// VecWidth divides the charged reduction cost: 1 (default) models the
	// scalar fold ADAPT ships (the paper notes its reductions "do not have
	// any vectorization optimizations", §5.1.2); 2+ models a vectorized
	// library fold. Live runs are unaffected (real arithmetic either way).
	VecWidth int
}

// DefaultOptions returns the standard tuning.
func DefaultOptions() Options {
	return Options{
		SegSize:    DefaultSegSize,
		SendWindow: DefaultSendWindow,
		RecvWindow: DefaultRecvWindow,
		Op:         comm.OpSum,
		Datatype:   comm.Float64,
	}
}

func (o Options) validate() Options {
	if o.SegSize <= 0 {
		o.SegSize = DefaultSegSize
	}
	if o.SendWindow <= 0 {
		o.SendWindow = DefaultSendWindow
	}
	if o.RecvWindow <= 0 {
		o.RecvWindow = DefaultRecvWindow
	}
	if o.RecvWindow < o.SendWindow {
		panic(fmt.Sprintf("core: recv window M=%d below send window N=%d breaks the unexpected-message guarantee",
			o.RecvWindow, o.SendWindow))
	}
	if o.VecWidth <= 0 {
		o.VecWidth = 1
	}
	return o
}

// ReduceCost returns the byte count charged for folding n payload bytes,
// after vectorization scaling.
func (o Options) ReduceCost(n int) int {
	if o.VecWidth > 1 {
		return n / o.VecWidth
	}
	return n
}

// tagger returns TagOf bound to one collective kind, for a stream's tag
// function.
func (o Options) tagger(kind comm.CollKind) func(int) comm.Tag {
	return func(seg int) comm.Tag { return o.TagOf(kind, seg) }
}

// TagOf builds the wire tag for segment seg of a collective of the given
// kind under this option set's sequence number.
func (o Options) TagOf(kind comm.CollKind, seg int) comm.Tag {
	return comm.MakeTag(kind, ((o.Seq%comm.SeqWrap)+comm.SeqWrap)%comm.SeqWrap, seg)
}
