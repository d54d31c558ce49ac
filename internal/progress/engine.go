// Package progress is the one matching core shared by every substrate:
// the posted-receive queue, unexpected-message queue, tag matching,
// xid-based duplicate suppression, completion-callback delivery, and the
// blocking wait loops behind comm.Comm. The simulator (internal/simmpi),
// the live goroutine runtime (internal/runtime), and the TCP transport
// (internal/nettransport) each embed one Engine per endpoint — which
// supplies the engine-backed half of comm.Comm and comm.FailStop (Rank,
// Size, Irecv, Recv, the Wait family, OnComplete, Progress, probes,
// notices, CancelRecv, tracing) — and supply a Backend describing how
// that substrate parks, wakes, and consumes a matched pair: eager
// payload hand-off, rendezvous grant, or simulated transfer scheduling.
// The daemon-backed serve.RemoteComm drives its remote operations as
// anonymous engine requests. The MPI matching semantics live here,
// exactly once.
//
// Lock discipline: the Engine owns one mutex. Backend hooks divide into
// two classes. Wake may be invoked from any goroutine after the lock is
// released and must not block. OnMatch and Block are always invoked
// WITHOUT the engine lock held, so they may call back into the engine
// (complete a request, post a notice) and may take substrate locks of
// their own — a substrate lock may be held around engine calls, never
// the reverse.
package progress

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"adapt/internal/comm"
	"adapt/internal/trace"
)

// ErrCanceled is the status error of a receive retracted by CancelRecv.
// Before it existed a canceled request's Status was indistinguishable
// from a successful zero-byte receive from rank 0 — callers that kept a
// handle after canceling could mistake retraction for delivery.
var ErrCanceled = errors.New("progress: receive canceled")

// Env is a message (or its rendezvous announcement) at the receiver
// side. Substrates populate the fields they use: the simulator and the
// live runtime park the sender's request in Rts, the TCP transport marks
// Rdv and pairs grant/data frames by Xid.
type Env struct {
	Src int
	Tag comm.Tag
	Msg comm.Msg

	// Rts, when non-nil, is the sender's request for an in-address-space
	// rendezvous: the payload still lives in the sender's buffer and the
	// request completes when the receiver pulls it.
	Rts *Req

	// Rdv marks a wire rendezvous announcement (nettransport): the
	// payload is still across the socket and arrives as a data frame
	// pairing this envelope's Xid.
	Rdv bool

	// HasData records whether the transfer carries real bytes (a
	// payload-elided comm.Msg travels with only its logical size).
	HasData bool

	// Xid is the transmission id: duplicate-delivery suppression when the
	// Backend enables dedup, grant/data pairing on the wire.
	Xid uint64

	// Seq is the arrival order stamped by Arrive, for deterministic
	// diagnostics.
	Seq uint64

	// PostID carries the sender's SendPost trace record id for the
	// matched-receive Link edge. Zero when tracing is off.
	PostID uint64

	// Err, when non-nil, turns the envelope into a structured failure
	// notification: the transfer it announces is unrecoverable (e.g. an
	// erasure-coded group exhausted both its parity and its NACK-resend
	// budget), and the matching receive must complete with this error
	// instead of data. Failure envelopes flow through the same matching
	// core as data so ordering, wildcards and dedup apply uniformly.
	Err error
}

// Req implements comm.Request for every substrate.
type Req struct {
	eng    *Engine
	isSend bool
	done   bool

	// matching marks the window between an envelope being matched to
	// this receive (popped off a queue under the lock) and the match's
	// completion landing — OnMatch may deliver asynchronously, so the
	// request is neither posted nor done meanwhile. CancelRecv refuses
	// requests in this state explicitly: the match already won.
	matching bool

	status comm.Status
	cb     func(comm.Status)

	// Receive-side matching state.
	Src   int
	Tag   comm.Tag
	Space comm.MemSpace

	// Send-side state the substrates thread through the protocol.
	Dst int
	Msg comm.Msg // rendezvous send payload (referenced until granted)
	Xid uint64   // rendezvous transfer id (nettransport)

	// Causal trace ids (0 when tracing is off).
	PostID  uint64
	MatchID uint64
	DoneID  uint64
}

// Test reports the request's status without blocking.
func (r *Req) Test() (comm.Status, bool) {
	r.eng.mu.Lock()
	defer r.eng.mu.Unlock()
	return r.status, r.done
}

// IsSend reports whether this is a send-side request.
func (r *Req) IsSend() bool { return r.isSend }

// ArriveResult tells the substrate what Arrive did with an envelope, so
// crash/chaos wrappers can dispose of refused or duplicate copies.
type ArriveResult int

const (
	// ArriveMatched: a posted receive consumed the envelope (OnMatch ran).
	ArriveMatched ArriveResult = iota
	// ArriveParked: no posted receive matched; the envelope sits in the
	// unexpected queue.
	ArriveParked
	// ArriveDuplicate: an envelope with this Xid was already delivered.
	ArriveDuplicate
	// ArriveHalted: this endpoint crashed (fail-stop); the envelope was
	// not enqueued.
	ArriveHalted
)

// Backend is the substrate personality an Engine drives.
type Backend struct {
	// Prefix names the substrate in panic messages ("simmpi", "runtime",
	// "nettransport") so diagnostics keep their historical shape.
	Prefix string
	// Rank is this endpoint's rank, stamped on trace records.
	Rank int
	// Size is the communicator size the endpoint belongs to.
	Size int
	// Now supplies the substrate clock (virtual or wall).
	Now func() time.Duration
	// Trace returns the causal trace buffer, or nil when tracing is off.
	// Fetched per event: worlds attach buffers after construction.
	Trace func() *trace.Buffer
	// Wake unblocks the owner if it is parked in a wait loop. May run on
	// any goroutine, with or without the engine lock held; must not block.
	// Wake and Block come as a pair; leave both nil for the default, a
	// one-token wake channel the owner goroutine parks on.
	Wake func()
	// Block parks the owner until Wake. Called on the owner goroutine
	// without the engine lock held.
	Block func()
	// OnMatch consumes a matched (receive, envelope) pair: deliver the
	// payload, grant the rendezvous, or schedule the simulated transfer.
	// Called without the engine lock; must complete req exactly once
	// (possibly later, asynchronously). wasUnexpected reports that the
	// envelope waited in the unexpected queue (the simulator charges the
	// buffered-copy penalty for that).
	OnMatch func(req *Req, env *Env, wasUnexpected bool)
	// CauseOnComplete, when set, installs a completion record as the
	// causal context at completion time (the simulator's single-threaded
	// kernel completes in event context, which the owner observes
	// immediately). Otherwise the context advances when the owner
	// observes the completion — a fired callback or a returning Wait.
	CauseOnComplete bool
	// DedupXids enables receiver-side duplicate suppression for nonzero
	// envelope Xids (the live runtime's chaos transport). The TCP
	// transport leaves this off: its stream never duplicates, and its
	// Xids pair rendezvous frames instead.
	DedupXids bool
}

// Engine is one endpoint's matching core.
type Engine struct {
	b Backend

	mu             sync.Mutex
	posted         []*Req
	unexpected     []*Env
	cbQueue        []*Req // queued callbacks; cbQueue[cbHead:] are unfired
	cbHead         int
	cbSpare        []*Req // drain's second buffer, so batches reuse storage
	completedCount uint64
	pendingOps     int
	arrivalSeq     uint64
	seen           map[uint64]struct{} // delivered xids (DedupXids)
	halted         bool                // fail-stop: this endpoint crashed

	// Control-plane notice queue (comm.FailStop).
	notices   []comm.Notice
	noticeSeq uint64

	// curCause is the rank's causal context: the record id of the latest
	// event the rank has observed. Owner-goroutine only, except under
	// CauseOnComplete where completion (same thread) writes it.
	curCause uint64

	// envFree recycles envelopes for the single-threaded simulator, whose
	// collectives push one envelope per segment per hop.
	envFree []*Env

	// notifier, when attached, is signalled alongside every Wake so a
	// Scheduler can multiplex wait loops across engines. Atomic because
	// wake reads it outside the engine lock while a scheduler on another
	// goroutine attaches.
	notifier atomic.Pointer[Notifier]
}

// New builds an engine around the given substrate personality.
func New(b Backend) *Engine {
	if b.Trace == nil {
		b.Trace = func() *trace.Buffer { return nil }
	}
	if b.Wake == nil && b.Block == nil {
		wake := make(chan struct{}, 1)
		b.Wake = func() {
			select {
			case wake <- struct{}{}:
			default:
			}
		}
		b.Block = func() { <-wake }
	}
	return &Engine{b: b}
}

// Rank returns this endpoint's rank.
func (e *Engine) Rank() int { return e.b.Rank }

// Size returns the communicator size.
func (e *Engine) Size() int { return e.b.Size }

// wake unparks the owner and pokes an attached scheduler notifier.
// Called after the engine lock is released.
func (e *Engine) wake() {
	e.b.Wake()
	if n := e.notifier.Load(); n != nil {
		n.Signal()
	}
}

// AttachProgressNotifier registers n to be signalled on every
// wake-worthy event (completion, parked arrival, notice), so a Scheduler
// can multiplex wait loops across engines. Safe against concurrent
// wakes; the newly attached notifier is signalled once so a scheduler
// that attaches mid-flight never misses an event that just fired.
func (e *Engine) AttachProgressNotifier(n *Notifier) {
	e.notifier.Store(n)
	n.Signal()
}

// Pending returns the number of operations in flight.
func (e *Engine) Pending() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.pendingOps
}

// Snapshot copies the in-flight state for watchdog dumps: pending-op
// count, posted receives, parked unexpected envelopes.
func (e *Engine) Snapshot() (pending int, posted []*Req, unexpected []*Env) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.pendingOps,
		append([]*Req(nil), e.posted...),
		append([]*Env(nil), e.unexpected...)
}

// NewEnv draws an envelope from the free-list (single-threaded
// substrates recycle envelopes through FreeEnv; concurrent ones build
// their own and never call this pair).
func (e *Engine) NewEnv(src int, tag comm.Tag, msg comm.Msg, rts *Req) *Env {
	if n := len(e.envFree); n > 0 {
		env := e.envFree[n-1]
		e.envFree = e.envFree[:n-1]
		*env = Env{Src: src, Tag: tag, Msg: msg, Rts: rts}
		return env
	}
	return &Env{Src: src, Tag: tag, Msg: msg, Rts: rts}
}

// FreeEnv returns a matched envelope to the free-list. Callers must have
// copied out every field they still need.
func (e *Engine) FreeEnv(env *Env) {
	*env = Env{}
	e.envFree = append(e.envFree, env)
}

// StartOp registers an anonymous operation completed from outside the
// matching queues (device reductions, async copies, a daemon's remote
// sends and receives): one operation in flight, no trace record.
func (e *Engine) StartOp(isSend bool) *Req {
	req := &Req{eng: e, isSend: isSend}
	e.mu.Lock()
	e.pendingOps++
	e.mu.Unlock()
	return req
}

// StartSend registers a send-side request: one operation in flight, a
// SendPost trace record, the destination recorded for the protocol.
func (e *Engine) StartSend(dst int, tag comm.Tag, size int) *Req {
	req := &Req{eng: e, isSend: true, Dst: dst, Tag: tag}
	if tb := e.b.Trace(); tb != nil {
		req.PostID = tb.Add(trace.Record{At: e.b.Now(), Rank: e.b.Rank, Kind: trace.SendPost,
			Peer: dst, Tag: tag, Size: size, Parent: e.curCause})
	}
	e.mu.Lock()
	e.pendingOps++
	e.mu.Unlock()
	return req
}

// PostRecv posts a receive matching (src, tag) into the given memory
// space. The unexpected queue is scanned first (MPI matching order); on
// a hit the envelope is consumed through OnMatch before PostRecv
// returns.
func (e *Engine) PostRecv(src int, tag comm.Tag, space comm.MemSpace) *Req {
	req := &Req{eng: e, Src: src, Tag: tag, Space: space}
	if tb := e.b.Trace(); tb != nil {
		req.PostID = tb.Add(trace.Record{At: e.b.Now(), Rank: e.b.Rank, Kind: trace.RecvPost,
			Peer: src, Tag: tag, Parent: e.curCause})
	}
	e.mu.Lock()
	e.pendingOps++
	for i, env := range e.unexpected {
		if req.matches(env) {
			e.unexpected = removeAt(e.unexpected, i)
			req.MatchID = env.PostID
			req.matching = true
			e.mu.Unlock()
			e.b.OnMatch(req, env, true)
			return req
		}
	}
	e.posted = append(e.posted, req)
	e.mu.Unlock()
	return req
}

// Irecv posts a receive matching (src, tag) into the default memory
// space.
func (e *Engine) Irecv(src int, tag comm.Tag) comm.Request {
	return e.PostRecv(src, tag, comm.MemDefault)
}

// Recv performs a blocking receive.
func (e *Engine) Recv(src int, tag comm.Tag) comm.Status {
	return e.Wait(e.Irecv(src, tag))
}

// removeAt deletes q[i] in place, keeping the queue's order and storage.
func removeAt[T any](q []*T, i int) []*T {
	copy(q[i:], q[i+1:])
	q[len(q)-1] = nil
	return q[:len(q)-1]
}

func (r *Req) matches(env *Env) bool {
	return (r.Src == comm.AnySource || r.Src == env.Src) && r.Tag.Matches(env.Tag)
}

// Arrive processes an envelope reaching this endpoint: suppressed if a
// duplicate, refused if the endpoint crashed, matched against the posted
// queue (OnMatch runs before Arrive returns), or parked unexpected. The
// caller disposes of refused and duplicate envelopes.
func (e *Engine) Arrive(env *Env) ArriveResult {
	e.mu.Lock()
	if e.halted {
		e.mu.Unlock()
		return ArriveHalted
	}
	if e.b.DedupXids && env.Xid != 0 {
		if _, dup := e.seen[env.Xid]; dup {
			e.mu.Unlock()
			return ArriveDuplicate
		}
		if e.seen == nil {
			e.seen = make(map[uint64]struct{})
		}
		e.seen[env.Xid] = struct{}{}
	}
	e.arrivalSeq++
	env.Seq = e.arrivalSeq
	for i, req := range e.posted {
		if req.matches(env) {
			e.posted = removeAt(e.posted, i)
			req.MatchID = env.PostID
			req.matching = true
			e.mu.Unlock()
			e.b.OnMatch(req, env, false)
			return ArriveMatched
		}
	}
	e.unexpected = append(e.unexpected, env)
	e.mu.Unlock()
	e.wake() // wake a blocked Probe
	return ArriveParked
}

// completeLocked finishes req under the engine lock.
func (e *Engine) completeLocked(req *Req, st comm.Status) {
	req.done = true
	req.matching = false
	req.status = st
	if tb := e.b.Trace(); tb != nil {
		kind := trace.RecvDone
		if req.isSend {
			kind = trace.SendDone
		}
		req.DoneID = tb.Add(trace.Record{At: e.b.Now(), Rank: e.b.Rank, Kind: kind,
			Peer: st.Source, Tag: st.Tag, Size: st.Msg.Size,
			Parent: req.PostID, Link: req.MatchID})
		if e.b.CauseOnComplete && req.DoneID != 0 {
			// Single-threaded substrate: the rank cannot act on anything
			// older once this completion lands.
			e.curCause = req.DoneID
		}
	}
	e.completedCount++
	e.pendingOps--
	if req.cb != nil {
		e.cbQueue = append(e.cbQueue, req)
	}
}

// Complete finishes req and wakes the owner. Callable from any
// goroutine; panics on double completion.
func (r *Req) Complete(st comm.Status) {
	e := r.eng
	e.mu.Lock()
	if r.done {
		e.mu.Unlock()
		panic(e.b.Prefix + ": request completed twice")
	}
	e.completeLocked(r, st)
	e.mu.Unlock()
	e.wake()
}

// CompleteIfLive completes r unless it already finished — under chaos a
// late success can race a timeout failure (or vice versa); first wins.
func (r *Req) CompleteIfLive(st comm.Status) bool {
	e := r.eng
	e.mu.Lock()
	if r.done {
		e.mu.Unlock()
		return false
	}
	e.completeLocked(r, st)
	e.mu.Unlock()
	e.wake()
	return true
}

// drain fires queued callbacks on the owner goroutine until none remain.
// The completion a callback reacts to becomes the rank's causal context
// while it runs and persists afterwards, so both callback-posted
// operations and straight-line code after a Wait link back to the
// completion that released them.
func (e *Engine) drain() int {
	n := 0
	for {
		e.mu.Lock()
		if e.cbHead == len(e.cbQueue) {
			e.mu.Unlock()
			return n
		}
		// Swap in the spare buffer: callbacks queued while this batch
		// fires land in the next batch, in completion order.
		batch := e.cbQueue[e.cbHead:]
		e.cbQueue, e.cbHead, e.cbSpare = e.cbSpare, 0, nil
		e.mu.Unlock()
		for i, req := range batch {
			batch[i] = nil
			e.fire(req)
		}
		n += len(batch)
		e.mu.Lock()
		e.cbSpare = batch[:0]
		e.mu.Unlock()
	}
}

// fire runs req's callback with its completion as the causal context.
func (e *Engine) fire(req *Req) {
	cb := req.cb
	req.cb = nil
	if req.DoneID != 0 {
		e.curCause = req.DoneID
	}
	cb(req.status)
}

// DrainWhile fires queued callbacks one at a time while ok() holds,
// leaving the remainder queued, and returns how many fired. It exists
// for the flat (goroutine-free) rank driver: callbacks run in kernel
// event context at one virtual instant, but a callback may advance the
// rank's busy clock (a Compute charge), after which the REST of the
// queue must not fire until that clock — the flat driver re-arms a
// drain event there. The gate is re-evaluated before every callback
// because each one can change the verdict.
func (e *Engine) DrainWhile(ok func() bool) int {
	n := 0
	for ok() {
		e.mu.Lock()
		if e.cbHead == len(e.cbQueue) {
			e.mu.Unlock()
			break
		}
		// Pop by head index; once empty the queue rewinds to its start,
		// so its storage is reused instead of shrinking away.
		req := e.cbQueue[e.cbHead]
		e.cbQueue[e.cbHead] = nil
		if e.cbHead++; e.cbHead == len(e.cbQueue) {
			e.cbQueue, e.cbHead = e.cbQueue[:0], 0
		}
		e.mu.Unlock()
		e.fire(req)
		n++
	}
	return n
}

// PendingCallbacks reports how many completion callbacks are queued but
// not yet fired (the flat driver re-arms a drain when nonzero).
func (e *Engine) PendingCallbacks() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.cbQueue) - e.cbHead
}

// observe installs a completion the owner just acted on as the causal
// context (no-op for CauseOnComplete substrates, which already did).
func (e *Engine) observe(doneID uint64) {
	if !e.b.CauseOnComplete && doneID != 0 {
		e.curCause = doneID
	}
}

// Wait blocks until r completes, firing ready callbacks meanwhile. Like
// every wait variant it returns only after the callbacks of everything
// that completed before it observed r done have fired (except those an
// enclosing drain already holds, when called from inside a callback).
func (e *Engine) Wait(r comm.Request) comm.Status {
	req := r.(*Req)
	for {
		e.drain()
		e.mu.Lock()
		if req.done {
			st, doneID := req.status, req.DoneID
			e.mu.Unlock()
			// A completion landing on another goroutine between the drain
			// and the check queued its callback first: fire it too.
			e.drain()
			e.observe(doneID)
			return st
		}
		e.mu.Unlock()
		e.b.Block()
	}
}

// WaitAll blocks until every request completes. nil entries (inactive
// handles, as with MPI_REQUEST_NULL) are skipped.
func (e *Engine) WaitAll(rs []comm.Request) {
	for {
		e.drain()
		alldone := true
		for _, r := range rs {
			if r == nil {
				continue
			}
			if _, ok := r.Test(); !ok {
				alldone = false
				break
			}
		}
		if alldone {
			e.drain() // callbacks of completions that raced the check (see Wait)
			// The rank proceeds only once every request has landed: the
			// latest completion (largest record id) is its causal context.
			var last uint64
			for _, r := range rs {
				if req, ok := r.(*Req); ok && req != nil && req.DoneID > last {
					last = req.DoneID
				}
			}
			e.observe(last)
			return
		}
		e.b.Block()
	}
}

// WaitAny blocks until some request completes and returns its index.
// nil entries are inactive and skipped; at least one entry must be live.
func (e *Engine) WaitAny(rs []comm.Request) (int, comm.Status) {
	live := false
	for _, r := range rs {
		if r != nil {
			live = true
			break
		}
	}
	if !live {
		panic(e.b.Prefix + ": WaitAny with no live request")
	}
	for {
		e.drain()
		for i, r := range rs {
			if r == nil {
				continue
			}
			if st, ok := r.Test(); ok {
				e.drain() // callbacks of completions that raced the check (see Wait)
				if req, ok := r.(*Req); ok {
					e.observe(req.DoneID)
				}
				return i, st
			}
		}
		e.b.Block()
	}
}

// OnComplete attaches fn to r; it fires on the owner goroutine from
// inside Progress or a Wait variant.
func (e *Engine) OnComplete(r comm.Request, fn func(comm.Status)) {
	req, ok := r.(*Req)
	if !ok || req.eng != e {
		panic(e.b.Prefix + ": OnComplete on foreign request")
	}
	e.mu.Lock()
	if req.cb != nil {
		e.mu.Unlock()
		panic(e.b.Prefix + ": request already has a callback")
	}
	req.cb = fn
	if req.done {
		// Already complete: queue the callback for the owner's next drain.
		// No wake — the owner is the caller, and every wait loop drains
		// before parking.
		e.cbQueue = append(e.cbQueue, req)
	}
	e.mu.Unlock()
}

// Progress blocks until at least one completion is processed, fires
// ready callbacks, and returns.
func (e *Engine) Progress() {
	e.mu.Lock()
	start := e.completedCount
	e.mu.Unlock()
	for {
		fired := e.drain()
		e.mu.Lock()
		advanced := e.completedCount > start
		pending := e.pendingOps
		e.mu.Unlock()
		if fired > 0 || advanced {
			return
		}
		if pending == 0 {
			panic(fmt.Sprintf("%s: rank %d progressing with no operation in flight", e.b.Prefix, e.b.Rank))
		}
		e.b.Block()
	}
}

// TryProgress fires ready callbacks without blocking.
func (e *Engine) TryProgress() bool {
	return e.drain() > 0
}

// Iprobe reports whether a matching message (or rendezvous
// announcement) has arrived without consuming it.
func (e *Engine) Iprobe(src int, tag comm.Tag) (comm.Status, bool) {
	probe := &Req{eng: e, Src: src, Tag: tag}
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, env := range e.unexpected {
		if probe.matches(env) {
			return comm.Status{Source: env.Src, Tag: env.Tag,
				Msg: comm.Msg{Size: env.Msg.Size, Space: env.Msg.Space}}, true
		}
	}
	return comm.Status{}, false
}

// Probe blocks until a matching message is available, leaving it queued.
func (e *Engine) Probe(src int, tag comm.Tag) comm.Status {
	for {
		if st, ok := e.Iprobe(src, tag); ok {
			return st
		}
		e.b.Block()
	}
}

// CancelRecv retracts a posted, unmatched receive. Returns false when
// the receive already matched or completed (its callback still fires) —
// in particular when a Cancel races an arriving envelope: the arrival
// pops the receive off the posted queue and marks it mid-match under
// the engine lock, so exactly one of the two wins. A retracted request
// reads back done with status error ErrCanceled, distinguishing it from
// any delivered message.
func (e *Engine) CancelRecv(r comm.Request) bool {
	req, ok := r.(*Req)
	if !ok || req.eng != e || req.isSend {
		panic(e.b.Prefix + ": CancelRecv on foreign or send request")
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if req.done || req.matching {
		return false
	}
	for i, q := range e.posted {
		if q == req {
			e.posted = removeAt(e.posted, i)
			req.done = true
			req.cb = nil
			req.status = comm.Status{Source: req.Src, Tag: req.Tag, Err: ErrCanceled}
			e.pendingOps--
			return true
		}
	}
	return false
}

// Halt tears the matching engine down at this endpoint's fail-stop crash
// point: posted receives die with the rank, queued callbacks never fire,
// and later arrivals are refused. The swept queues come back so the
// substrate can dispose of them — live rendezvous senders parked in the
// unexpected queue must fail instead of waiting forever for a grant.
func (e *Engine) Halt() (posted []*Req, unexpected []*Env) {
	e.mu.Lock()
	e.halted = true
	posted, unexpected = e.posted, e.unexpected
	e.posted, e.unexpected, e.cbQueue, e.cbHead = nil, nil, nil, 0
	e.mu.Unlock()
	return posted, unexpected
}

// DropUnexpected removes parked envelopes matching pred (a confirmed-
// dead sender's rendezvous announcements can never be granted) and
// returns them for disposal.
func (e *Engine) DropUnexpected(pred func(*Env) bool) []*Env {
	e.mu.Lock()
	defer e.mu.Unlock()
	var dropped []*Env
	keep := e.unexpected[:0]
	for _, env := range e.unexpected {
		if pred(env) {
			dropped = append(dropped, env)
		} else {
			keep = append(keep, env)
		}
	}
	e.unexpected = keep
	return dropped
}

// PushNotice appends a control-plane notice and wakes the owner.
func (e *Engine) PushNotice(n comm.Notice) {
	e.mu.Lock()
	e.notices = append(e.notices, n)
	e.noticeSeq++
	e.mu.Unlock()
	e.wake()
}

// TakeNotices drains the pending control-plane notices.
func (e *Engine) TakeNotices() []comm.Notice {
	e.mu.Lock()
	out := e.notices
	e.notices = nil
	e.mu.Unlock()
	return out
}

// WaitEvent blocks until a completion callback fires or a new notice
// arrives. Legal with no operation in flight (control-plane waits).
func (e *Engine) WaitEvent() {
	e.mu.Lock()
	start := e.noticeSeq
	e.mu.Unlock()
	for {
		if e.drain() > 0 {
			return
		}
		e.mu.Lock()
		advanced := e.noticeSeq > start
		e.mu.Unlock()
		if advanced {
			return
		}
		e.b.Block()
	}
}

// TraceEmit implements trace.Emitter: it stamps the record with the
// endpoint's identity and clock, defaults its Parent to the current
// causal context, and appends it. Returns 0 (and stays allocation-free)
// when tracing is off.
func (e *Engine) TraceEmit(r trace.Record) uint64 {
	tb := e.b.Trace()
	if tb == nil {
		return 0
	}
	r.At = e.b.Now()
	r.Rank = e.b.Rank
	if r.Parent == 0 {
		r.Parent = e.curCause
	}
	return tb.Add(r)
}

// TraceSetCause installs id as the rank's causal context and returns the
// previous one; collectives bracket their entry with it so the initial
// wave of posts links back to the CollStart record.
func (e *Engine) TraceSetCause(id uint64) uint64 {
	prev := e.curCause
	e.curCause = id
	return prev
}
