package core

import (
	"adapt/internal/comm"
	"adapt/internal/trace"
)

// Collective-level tracing. Each Start* entry point brackets itself with
// a CollStart/CollEnd span:
//
//   - CollStart is emitted before the state machine is built and becomes
//     the rank's causal context while the initial operation wave is
//     posted, so the trace's first posts parent to the collective entry.
//   - CollEnd is emitted the first time the handle observes completion
//     (Link = the CollStart record), closing the span at the completion
//     time of the rank's last operation.
//
// When the substrate does not trace (or has no buffer attached) the
// helper costs one interface probe per collective and nothing per event.

// traceStart emits CollStart for a collective entered now and returns the
// finish hook to pass the built Op through. The hook restores the rank's
// previous causal context and arms the CollEnd emission.
func traceStart(c comm.Comm, kind comm.CollKind, opt Options, root, size int) func(*Op) *Op {
	tag := opt.TagOf(kind, 0)
	id := trace.Emit(c, trace.Record{Kind: trace.CollStart, Peer: root, Tag: tag, Size: size})
	if id == 0 {
		return func(op *Op) *Op { return op }
	}
	prev := trace.SetCause(c, id)
	return func(op *Op) *Op {
		trace.SetCause(c, prev)
		inner := op.pending
		if inner == nil {
			inner = op.st.pending
		}
		ended := false
		op.pending = func() bool {
			p := inner()
			if !p && !ended {
				ended = true
				trace.Emit(c, trace.Record{Kind: trace.CollEnd, Peer: root, Tag: tag,
					Size: size, Link: id})
			}
			return p
		}
		return op
	}
}
