package comm

import (
	"fmt"
	"time"
)

// Status describes a completed operation. For receives, Source/RecvTag/Msg
// are filled in from the matched message; for sends they echo the posted
// destination and tag. Err is non-nil when the operation completed
// unsuccessfully — under fault injection, a send whose every transmission
// attempt went unacknowledged carries a *faults.TimeoutError naming the
// edge and the lost segment.
type Status struct {
	Source int
	Tag    Tag
	Msg    Msg
	Err    error
}

// Request is a handle to an in-flight non-blocking operation.
type Request interface {
	// Test reports completion without blocking. Once it returns true it
	// keeps returning the same Status.
	Test() (Status, bool)
	// IsSend reports whether the request is a send (vs a receive).
	IsSend() bool
}

// ComputeKind classifies local work for cost accounting. The live runtime
// performs the work for real and treats Compute as a no-op; the simulator
// charges kind-specific per-byte costs from the platform profile.
type ComputeKind uint8

const (
	// ComputeReduce is CPU reduction arithmetic (γ_cpu per byte).
	ComputeReduce ComputeKind = iota
	// ComputeCopy is a host memory copy (unexpected-message drain, pack).
	ComputeCopy
	// ComputeApp is application work (e.g. ASP's relaxation loop).
	ComputeApp
)

// Comm is one rank's endpoint of a communicator. A Comm value is owned by
// exactly one goroutine (the rank); all methods must be called from it.
// Completion callbacks registered with OnComplete run on the owning
// goroutine, from inside Progress, Wait, WaitAny or WaitAll — never
// concurrently with rank code. This mirrors Open MPI's single-threaded
// progress-engine discipline that ADAPT relies on.
type Comm interface {
	// Rank returns this process's rank in [0, Size).
	Rank() int
	// Size returns the number of ranks in the communicator.
	Size() int

	// Send performs a blocking standard-mode send: it returns when the
	// message buffer may be reused, which for large (rendezvous-protocol)
	// messages implies the receiver has posted a matching receive. This
	// implicit handshake is the synchronization that lets noise propagate
	// through blocking collectives (paper §2.1.1).
	Send(dst int, tag Tag, msg Msg)
	// Recv blocks until a message matching (src, tag) arrives; src may be
	// AnySource and tag may be AnyTag.
	Recv(src int, tag Tag) Status

	// Isend starts a non-blocking send.
	Isend(dst int, tag Tag, msg Msg) Request
	// Irecv posts a non-blocking receive for a message matching (src, tag).
	// The matched payload arrives in a buffer the substrate hands over:
	// the receiver owns Status.Msg.Data and may PutBuf it.
	Irecv(src int, tag Tag) Request
	// IrecvInto posts a receive whose payload lands directly in buf (an
	// MPI posted buffer): a matched eager copy or rendezvous pull writes
	// there, not into a pooled buffer. buf belongs to the substrate from
	// the call until the request completes; the caller must neither read
	// nor write it meanwhile. On success Status.Msg.Data aliases
	// buf[:Status.Msg.Size] (nil when the payload was elided), so the
	// caller must not PutBuf it. A matched message longer than buf
	// completes the receive with a *TruncateError and leaves buf's
	// contents unspecified. A nil buf is a plain Irecv.
	IrecvInto(src int, tag Tag, buf []byte) Request

	// Wait blocks until r completes, firing any ready callbacks meanwhile.
	Wait(r Request) Status
	// WaitAll blocks until every request completes. nil entries are
	// inactive handles (MPI_REQUEST_NULL) and are skipped.
	WaitAll(rs []Request)
	// WaitAny blocks until at least one request completes and returns its
	// index. nil entries are inactive handles and are skipped; at least
	// one entry must be non-nil. Completed requests must be removed (or
	// set to nil) by the caller before the next WaitAny: a completed
	// request passed again returns immediately.
	WaitAny(rs []Request) (int, Status)

	// OnComplete attaches a completion callback to a request. If r has
	// already completed the callback fires during the next Progress/Wait.
	// This is the low-level hook Open MPI lacks at the MPI_Isend level and
	// that ADAPT adds below it (paper §2.2.1). OnComplete takes over r:
	// once fn has run, r is dead — as MPI frees a completed request — and
	// the substrate may reuse it for a later operation, so the caller must
	// not Test, Wait on, CancelRecv or compare r after that.
	OnComplete(r Request, fn func(Status))
	// Progress blocks until at least one pending completion is processed,
	// then fires all ready callbacks and returns. It panics if no
	// operation is in flight (a stuck progress loop is a bug).
	Progress()
	// TryProgress fires any ready callbacks without blocking and reports
	// whether it did anything — the MPI_Test-style poke applications use
	// to drive collectives forward from inside compute loops.
	TryProgress() bool

	// Compute performs (live) or charges (simulated) n bytes of local work.
	Compute(n int, kind ComputeKind)

	// Now returns elapsed time on this rank's clock: virtual time in the
	// simulator, wall time in the live runtime.
	Now() time.Duration
}

// DeviceComm is implemented by comms on accelerator platforms. Collectives
// that exploit GPUs type-assert to it and fall back gracefully otherwise.
type DeviceComm interface {
	Comm
	// IrecvIn posts a non-blocking receive whose buffer lives in the given
	// memory space. Receiving inter-node traffic into MemHost instead of
	// MemDevice is the §4.1 staging optimization: it skips the delivery
	// hop across the GPU's PCIe link.
	IrecvIn(src int, tag Tag, space MemSpace) Request
	// DeviceReduce offloads reduction of n bytes to the rank's GPU on an
	// asynchronous stream. The returned request completes when the kernel
	// finishes; the CPU rank is free meanwhile (paper §4.2).
	DeviceReduce(n int) Request
	// AsyncCopy starts an asynchronous copy of n bytes between host and
	// device memory across the rank's PCIe link (paper §4.1's staging
	// flush). from/to must be MemHost/MemDevice in some order.
	AsyncCopy(n int, from, to MemSpace) Request
	// DefaultSpace reports where this rank's payload buffers live.
	DefaultSpace() MemSpace
}

// TruncateError is the status error of an IrecvInto receive whose
// matched message is longer than its posted buffer (MPI_ERR_TRUNCATE).
// It names the receiving rank, the sending peer and the matched tag.
type TruncateError struct {
	Rank, Peer int
	Tag        Tag
	Size, Cap  int // the message's length and the posted buffer's
}

func (e *TruncateError) Error() string {
	return fmt.Sprintf("comm: rank %d: %d-byte message from rank %d (tag %v) overflows its %d-byte receive buffer",
		e.Rank, e.Size, e.Peer, e.Tag, e.Cap)
}
