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
// the reverse. A SingleThreaded backend (the simulator, whose kernel
// hands control strictly from one goroutine to the next) elides the
// mutex altogether: the engine's lock and unlock helpers skip it.
//
// Request lifetime: StartSend, PostRecv and StartOp return a Req holding
// two references. The caller's handle is taken over by OnComplete, and
// the engine drops it once the callback returns (MPI frees a completed
// non-persistent request the same way); a handle used with Wait, Test or
// CancelRecv instead is never dropped. The substrate's reference travels
// with the pointer — OnMatch takes over a matched receive's — and is
// dropped with Release once the substrate is finished with the request.
// The last reference returns the request, zeroed, to its engine's
// free-list (a pool.List), from which the next request is drawn.
// Substrates that never Release (the live ones) therefore never reuse a
// request.
package progress

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"adapt/internal/comm"
	"adapt/internal/pool"
	"adapt/internal/trace"
)

// reqKind names requests in over-release and pooldebug panics.
const reqKind = "progress.Req"

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
	// request completes when the receiver pulls it. The field holds one
	// substrate reference to the request (see Req.Release).
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

// Req implements comm.Request for every substrate. It is reference
// counted (see the package doc): the caller's handle and the substrate
// each hold one reference, and the last Release recycles it.
type Req struct {
	eng    *Engine
	ref    pool.Ref
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

	// Send-side state the substrates thread through the protocol. A
	// receive keeps its posted buffer (IrecvInto) in Msg.Data instead,
	// so the field costs receive-heavy worlds nothing extra.
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
	r.eng.lock()
	defer r.eng.unlock()
	r.ref.Live(reqKind)
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
	// (possibly later, asynchronously), and takes over req's substrate
	// reference. wasUnexpected reports that the envelope waited in the
	// unexpected queue (the simulator charges the buffered-copy penalty
	// for that).
	OnMatch func(req *Req, env *Env, wasUnexpected bool)
	// SingleThreaded declares that every engine call, hook included,
	// runs on one goroutine at a time with a happens-before handoff
	// between them (the simulator's kernel). Two things follow: the
	// engine skips its mutex, and a completion record becomes the causal
	// context at completion time, since the owner observes a completion
	// in the same event. Otherwise the context advances when the owner
	// observes the completion — a fired callback or a returning Wait.
	SingleThreaded bool
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
	// SingleThreaded where completion (same thread) writes it.
	curCause uint64

	// envs recycles envelopes for the single-threaded simulator, whose
	// collectives push one envelope per segment per hop.
	envs pool.List[Env]
	// reqs holds requests whose last reference was released.
	reqs pool.List[Req]

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
	// A released request keeps its engine, so a stray Release panics
	// naming its kind instead of dereferencing nil.
	return &Engine{b: b, reqs: pool.List[Req]{Reset: func(r *Req) { *r = Req{eng: r.eng} }}}
}

// lock takes the engine mutex unless the backend is single-threaded.
func (e *Engine) lock() {
	if !e.b.SingleThreaded {
		e.mu.Lock()
	}
}

// unlock releases what lock took.
func (e *Engine) unlock() {
	if !e.b.SingleThreaded {
		e.mu.Unlock()
	}
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
	e.lock()
	defer e.unlock()
	return e.pendingOps
}

// Snapshot copies the in-flight state for watchdog dumps: pending-op
// count, posted receives, parked unexpected envelopes.
func (e *Engine) Snapshot() (pending int, posted []*Req, unexpected []*Env) {
	e.lock()
	defer e.unlock()
	return e.pendingOps,
		append([]*Req(nil), e.posted...),
		append([]*Env(nil), e.unexpected...)
}

// NewEnv draws an envelope from the free-list (single-threaded
// substrates recycle envelopes through FreeEnv; concurrent ones build
// their own and never call this pair).
func (e *Engine) NewEnv(src int, tag comm.Tag, msg comm.Msg, rts *Req) *Env {
	env := e.envs.Get()
	env.Src, env.Tag, env.Msg, env.Rts = src, tag, msg, rts
	return env
}

// FreeEnv returns a matched envelope to the free-list. Callers must have
// copied out every field they still need.
func (e *Engine) FreeEnv(env *Env) { e.envs.Put(env) }

// newReq draws a request holding its two references (the caller's
// handle and the substrate's) from the free-list, or allocates one, and
// counts one operation in flight. Called with the engine lock held.
func (e *Engine) newReq() *Req {
	req := e.reqs.Get()
	req.eng = e
	req.ref.Init(2)
	e.pendingOps++
	return req
}

// Retain adds a substrate reference to r, for a second record or
// envelope field that stores it.
func (r *Req) Retain() {
	r.eng.lock()
	r.ref.Live(reqKind)
	r.ref.Retain()
	r.eng.unlock()
}

// Release drops one reference to r. The last one zeroes r and returns it
// to its engine's free-list; r must not be touched afterwards. Releasing
// a reference that was never held panics.
func (r *Req) Release() {
	e := r.eng
	e.lock()
	defer e.unlock()
	if r.ref.Release(reqKind) {
		e.reqs.Put(r)
	}
}

// StartOp registers an anonymous operation completed from outside the
// matching queues (device reductions, async copies, a daemon's remote
// sends and receives): one operation in flight, no trace record.
func (e *Engine) StartOp(isSend bool) *Req {
	e.lock()
	req := e.newReq()
	req.isSend = isSend
	e.unlock()
	return req
}

// StartSend registers a send-side request: one operation in flight, a
// SendPost trace record, the destination recorded for the protocol.
func (e *Engine) StartSend(dst int, tag comm.Tag, size int) *Req {
	var post uint64
	if tb := e.b.Trace(); tb != nil {
		post = tb.Add(trace.Record{At: e.b.Now(), Rank: e.b.Rank, Kind: trace.SendPost,
			Peer: dst, Tag: tag, Size: size, Parent: e.curCause})
	}
	e.lock()
	req := e.newReq()
	req.isSend, req.Dst, req.Tag, req.PostID = true, dst, tag, post
	e.unlock()
	return req
}

// PostRecv posts a receive matching (src, tag) into the given memory
// space. The unexpected queue is scanned first (MPI matching order); on
// a hit the envelope is consumed through OnMatch before PostRecv
// returns.
func (e *Engine) PostRecv(src int, tag comm.Tag, space comm.MemSpace) *Req {
	return e.PostRecvInto(src, tag, space, nil)
}

// PostRecvInto is PostRecv with a posted buffer: the substrate lands
// the matched payload in buf (see Req.Dest and Req.Land). A nil buf is
// a plain PostRecv.
func (e *Engine) PostRecvInto(src int, tag comm.Tag, space comm.MemSpace, buf []byte) *Req {
	var post uint64
	if tb := e.b.Trace(); tb != nil {
		post = tb.Add(trace.Record{At: e.b.Now(), Rank: e.b.Rank, Kind: trace.RecvPost,
			Peer: src, Tag: tag, Parent: e.curCause})
	}
	e.lock()
	req := e.newReq()
	req.Src, req.Tag, req.Space, req.PostID = src, tag, space, post
	req.Msg.Data = buf
	for i, env := range e.unexpected {
		if req.matches(env) {
			e.unexpected = removeAt(e.unexpected, i)
			req.MatchID = env.PostID
			req.matching = true
			e.unlock()
			e.b.OnMatch(req, env, true)
			return req
		}
	}
	e.posted = append(e.posted, req)
	e.unlock()
	return req
}

// Irecv posts a receive matching (src, tag) into the default memory
// space.
func (e *Engine) Irecv(src int, tag comm.Tag) comm.Request {
	return e.PostRecv(src, tag, comm.MemDefault)
}

// IrecvInto posts a receive matching (src, tag) whose payload lands in
// buf (comm.Comm.IrecvInto).
func (e *Engine) IrecvInto(src int, tag comm.Tag, buf []byte) comm.Request {
	return e.PostRecvInto(src, tag, comm.MemDefault, buf)
}

// Posted returns the buffer an IrecvInto receive was posted with, nil
// for a plain receive.
func (r *Req) Posted() []byte { return r.Msg.Data }

// fit checks a matched message of size bytes from src against the
// receive's posted buffer.
func (r *Req) fit(src int, tag comm.Tag, size int) error {
	if buf := r.Msg.Data; buf != nil && size > len(buf) {
		return &comm.TruncateError{Rank: r.eng.b.Rank, Peer: src, Tag: tag, Size: size, Cap: len(buf)}
	}
	return nil
}

// Dest returns where the payload of msg, matched from src and still in
// the sender's buffer (a rendezvous pull), is to be copied: the posted
// buffer cut to the payload's length, or, for a plain receive, a fresh
// pooled buffer the receiver will own. An elided payload has no
// destination (nil). A message longer than the posted buffer is a
// *comm.TruncateError naming this rank, src and tag.
func (r *Req) Dest(src int, tag comm.Tag, msg comm.Msg) ([]byte, error) {
	if err := r.fit(src, tag, msg.Size); err != nil {
		return nil, err
	}
	switch {
	case msg.Data == nil:
		return nil, nil
	case r.Msg.Data != nil:
		return r.Msg.Data[:len(msg.Data)], nil
	}
	return comm.GetBuf(len(msg.Data)), nil
}

// Land moves a matched message whose payload the substrate already
// holds as an owned pooled copy (an eager snapshot) into the posted
// buffer, recycling the copy, and returns the message to complete the
// receive with. A plain receive takes the copy over unchanged. A
// message longer than the posted buffer is a *comm.TruncateError; its
// copy is recycled and the returned message keeps only its size.
func (r *Req) Land(src int, tag comm.Tag, msg comm.Msg) (comm.Msg, error) {
	buf := r.Msg.Data
	if buf == nil {
		return msg, nil
	}
	if err := r.fit(src, tag, msg.Size); err != nil {
		comm.PutBuf(msg.Data)
		return comm.Msg{Size: msg.Size, Space: msg.Space}, err
	}
	if msg.Data != nil {
		copy(buf, msg.Data)
		comm.PutBuf(msg.Data)
		msg.Data = buf[:len(msg.Data)]
	}
	return msg, nil
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
	e.lock()
	if e.halted {
		e.unlock()
		return ArriveHalted
	}
	if e.b.DedupXids && env.Xid != 0 {
		if _, dup := e.seen[env.Xid]; dup {
			e.unlock()
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
			e.unlock()
			e.b.OnMatch(req, env, false)
			return ArriveMatched
		}
	}
	e.unexpected = append(e.unexpected, env)
	e.unlock()
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
		if e.b.SingleThreaded && req.DoneID != 0 {
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
	e.lock()
	r.ref.Live(reqKind)
	if r.done {
		e.unlock()
		panic(e.b.Prefix + ": request completed twice")
	}
	e.completeLocked(r, st)
	e.unlock()
	e.wake()
}

// CompleteIfLive completes r unless it already finished — under chaos a
// late success can race a timeout failure (or vice versa); first wins.
func (r *Req) CompleteIfLive(st comm.Status) bool {
	e := r.eng
	e.lock()
	r.ref.Live(reqKind)
	if r.done {
		e.unlock()
		return false
	}
	e.completeLocked(r, st)
	e.unlock()
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
		e.lock()
		if e.cbHead == len(e.cbQueue) {
			e.unlock()
			return n
		}
		// Swap in the spare buffer: callbacks queued while this batch
		// fires land in the next batch, in completion order.
		batch := e.cbQueue[e.cbHead:]
		e.cbQueue, e.cbHead, e.cbSpare = e.cbSpare, 0, nil
		e.unlock()
		for i, req := range batch {
			batch[i] = nil
			e.fire(req)
		}
		n += len(batch)
		e.lock()
		e.cbSpare = batch[:0]
		e.unlock()
	}
}

// fire runs req's callback with its completion as the causal context,
// then drops the handle's reference: the callback was its last use.
func (e *Engine) fire(req *Req) {
	cb := req.cb
	req.cb = nil
	if req.DoneID != 0 {
		e.curCause = req.DoneID
	}
	cb(req.status)
	req.Release()
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
		e.lock()
		if e.cbHead == len(e.cbQueue) {
			e.unlock()
			break
		}
		// Pop by head index; once empty the queue rewinds to its start,
		// so its storage is reused instead of shrinking away.
		req := e.cbQueue[e.cbHead]
		e.cbQueue[e.cbHead] = nil
		if e.cbHead++; e.cbHead == len(e.cbQueue) {
			e.cbQueue, e.cbHead = e.cbQueue[:0], 0
		}
		e.unlock()
		e.fire(req)
		n++
	}
	return n
}

// PendingCallbacks reports how many completion callbacks are queued but
// not yet fired (the flat driver re-arms a drain when nonzero).
func (e *Engine) PendingCallbacks() int {
	e.lock()
	defer e.unlock()
	return len(e.cbQueue) - e.cbHead
}

// observe installs a completion the owner just acted on as the causal
// context (no-op for SingleThreaded substrates, which already did).
func (e *Engine) observe(doneID uint64) {
	if !e.b.SingleThreaded && doneID != 0 {
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
		e.lock()
		if req.done {
			st, doneID := req.status, req.DoneID
			e.unlock()
			// A completion landing on another goroutine between the drain
			// and the check queued its callback first: fire it too.
			e.drain()
			e.observe(doneID)
			return st
		}
		e.unlock()
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
// inside Progress or a Wait variant. OnComplete takes over the caller's
// handle: once fn has run, r is dead and may already serve a later
// operation.
func (e *Engine) OnComplete(r comm.Request, fn func(comm.Status)) {
	req, ok := r.(*Req)
	if !ok || req.eng != e {
		panic(e.b.Prefix + ": OnComplete on foreign request")
	}
	e.lock()
	req.ref.Live(reqKind)
	if req.cb != nil {
		e.unlock()
		panic(e.b.Prefix + ": request already has a callback")
	}
	req.cb = fn
	if req.done {
		// Already complete: queue the callback for the owner's next drain.
		// No wake — the owner is the caller, and every wait loop drains
		// before parking.
		e.cbQueue = append(e.cbQueue, req)
	}
	e.unlock()
}

// Progress blocks until at least one completion is processed, fires
// ready callbacks, and returns.
func (e *Engine) Progress() {
	e.lock()
	start := e.completedCount
	e.unlock()
	for {
		fired := e.drain()
		e.lock()
		advanced := e.completedCount > start
		pending := e.pendingOps
		e.unlock()
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
	e.lock()
	defer e.unlock()
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
	e.lock()
	defer e.unlock()
	req.ref.Live(reqKind)
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
	e.lock()
	e.halted = true
	posted, unexpected = e.posted, e.unexpected
	e.posted, e.unexpected, e.cbQueue, e.cbHead = nil, nil, nil, 0
	e.unlock()
	return posted, unexpected
}

// DropUnexpected removes parked envelopes matching pred (a confirmed-
// dead sender's rendezvous announcements can never be granted) and
// returns them for disposal.
func (e *Engine) DropUnexpected(pred func(*Env) bool) []*Env {
	e.lock()
	defer e.unlock()
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
	e.lock()
	e.notices = append(e.notices, n)
	e.noticeSeq++
	e.unlock()
	e.wake()
}

// TakeNotices drains the pending control-plane notices.
func (e *Engine) TakeNotices() []comm.Notice {
	e.lock()
	out := e.notices
	e.notices = nil
	e.unlock()
	return out
}

// WaitEvent blocks until a completion callback fires or a new notice
// arrives. Legal with no operation in flight (control-plane waits).
func (e *Engine) WaitEvent() {
	e.lock()
	start := e.noticeSeq
	e.unlock()
	for {
		if e.drain() > 0 {
			return
		}
		e.lock()
		advanced := e.noticeSeq > start
		e.unlock()
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
