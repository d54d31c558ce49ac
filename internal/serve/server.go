package serve

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"adapt/internal/comm"
	"adapt/internal/frame"
	"adapt/internal/metrics"
	"adapt/internal/perf"
	"adapt/internal/pool"
)

// Stats is a snapshot of the server's lifetime counters.
type Stats struct {
	Sessions       uint64 // sessions accepted
	SessionsClosed uint64 // sessions fully torn down
	Requests       uint64 // collective requests admitted
	Responses      uint64 // responses delivered (results + typed errors)
	ProxyOps       uint64 // point-to-point proxy operations applied
	Overloads      uint64 // typed Overloaded rejections
	Backends       uint64 // backend worlds ever built
}

// Server is the collective-as-a-service daemon core.
type Server struct {
	cfg Config
	ln  net.Listener

	mu       sync.Mutex
	backends map[backendKey]*backend
	genNext  map[backendKey]uint64
	all      []*backend // every backend ever built, for shutdown
	sessions map[uint64]*session
	sessNext uint64
	closed   bool

	sessWG sync.WaitGroup

	stSessions       atomic.Uint64
	stSessionsClosed atomic.Uint64
	stRequests       atomic.Uint64
	stResponses      atomic.Uint64
	stProxyOps       atomic.Uint64
	stOverloads      atomic.Uint64
	stBackends       atomic.Uint64
}

// New builds a Server listening on cfg.Addr and starts accepting.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("serve: listen %s: %w", cfg.Addr, err)
	}
	s := &Server{
		cfg:      cfg,
		ln:       ln,
		backends: map[backendKey]*backend{},
		genNext:  map[backendKey]uint64{},
		sessions: map[uint64]*session{},
	}
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Stats snapshots the lifetime counters.
func (s *Server) Stats() Stats {
	return Stats{
		Sessions:       s.stSessions.Load(),
		SessionsClosed: s.stSessionsClosed.Load(),
		Requests:       s.stRequests.Load(),
		Responses:      s.stResponses.Load(),
		ProxyOps:       s.stProxyOps.Load(),
		Overloads:      s.stOverloads.Load(),
		Backends:       s.stBackends.Load(),
	}
}

func (s *Server) acceptLoop() {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		if tc, ok := conn.(*net.TCPConn); ok {
			tc.SetNoDelay(true)
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		if len(s.sessions) >= s.cfg.MaxSessions {
			s.mu.Unlock()
			s.stOverloads.Add(1)
			perf.RecordServeOverload()
			frame := encodeErr(errMsg{ID: 0, Code: CodeOverloaded, Msg: "session limit reached"})
			conn.Write(frame)
			releaseFrame(frame)
			conn.Close()
			continue
		}
		s.sessNext++
		sess := newSession(s, s.sessNext, conn)
		s.sessions[sess.id] = sess
		s.sessWG.Add(1)
		s.mu.Unlock()
		s.stSessions.Add(1)
		perf.RecordServeSession()
		mSessionsLive.Inc()
		go sess.run()
	}
}

// backendFor returns (creating if needed) the cached backend for key.
func (s *Server) backendFor(key backendKey) (*backend, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrShutdown
	}
	if key.world > s.cfg.MaxWorld {
		return nil, &RequestError{Code: CodeBadRequest,
			Msg: fmt.Sprintf("world %d exceeds server cap %d", key.world, s.cfg.MaxWorld)}
	}
	if b := s.backends[key]; b != nil {
		b.mu.Lock()
		b.refs.Retain()
		b.mu.Unlock()
		return b, nil
	}
	s.genNext[key]++
	b, err := newBackend(s, key, s.genNext[key])
	if err != nil {
		return nil, err
	}
	b.refs.Init(1)
	s.backends[key] = b
	s.all = append(s.all, b)
	s.stBackends.Add(1)
	return b, nil
}

// evictBackend removes a degraded backend from the cache: live sessions
// keep it (their FT collectives heal around the dead rank); the next
// Hello for its key builds a fresh generation.
func (s *Server) evictBackend(b *backend) {
	s.mu.Lock()
	if s.backends[b.key] == b {
		delete(s.backends, b.key)
	}
	s.mu.Unlock()
	b.mu.Lock()
	b.evicted = true
	idle := b.refs.Count() == 0
	b.mu.Unlock()
	if idle {
		// Never tear down from an executor goroutine (shutdown waits on
		// the executor WaitGroup).
		go b.shutdown()
	}
}

// releaseBackend drops one session's reference. Cached backends outlive
// their sessions — that is the communicator-caching point — but a
// degraded, evicted backend is torn down at zero references.
func (s *Server) releaseBackend(b *backend) {
	b.mu.Lock()
	idle := b.refs.Release("serve.backend") && b.evicted
	b.mu.Unlock()
	if idle {
		go b.shutdown()
	}
}

// Close drains and stops the server: stop accepting, give live sessions
// DrainTimeout to finish (then cut them), stop every backend world. It
// returns only once every accepted session's teardown has run, so
// Stats().SessionsClosed is final by then.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	sessions := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	backends := append([]*backend(nil), s.all...)
	s.mu.Unlock()

	s.ln.Close()
	drainT0 := metrics.Clock()
	for _, sess := range sessions {
		sess.beginShutdown()
	}
	done := make(chan struct{})
	go func() { s.sessWG.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(s.cfg.DrainTimeout):
		for _, sess := range sessions {
			sess.conn.Close()
		}
		<-done
	}
	mDrainServer.ObserveSince(drainT0)
	for _, b := range backends {
		b.shutdown()
	}
	return nil
}

func (s *Server) dropSession(sess *session) {
	s.mu.Lock()
	delete(s.sessions, sess.id)
	s.mu.Unlock()
	s.stSessionsClosed.Add(1)
	mSessionsLive.Dec()
}

// session is one client connection's server-side state. It is the
// connection decoder's frame.Handler: reqDec's client-frame rules plus
// Dispatch.
type session struct {
	id   uint64
	srv  *Server
	conn net.Conn
	w    *frame.Writer // one queue: encoded frames for the client
	reqDec

	be        *backend
	proxyRank int

	gone       chan struct{}
	goneOnce   sync.Once
	pending    atomic.Int32
	draining   atomic.Bool
	shutdown   atomic.Bool
	drained    chan struct{}
	drainOnce  sync.Once
	sessErrRaw atomic.Bool
}

// sessionQueue caps the frames a session's writer queues for its
// client: the in-flight budget's responses and some slack, but no fewer
// than 1024, as proxy sessions stream many op completions. A client
// that stops reading fills it; then respond waits before crediting the
// budget, admission stops at SessionPending, the reader waits on its
// rejection frames and TCP flow control pushes back on the client.
func sessionQueue(cfg Config) int { return max(cfg.SessionPending+8, 1024) }

func newSession(s *Server, id uint64, conn net.Conn) *session {
	return &session{
		id:        id,
		srv:       s,
		conn:      conn,
		w:         frame.NewWriter([]net.Conn{conn}, sessionQueue(s.cfg), nil, nil),
		proxyRank: -1,
		gone:      make(chan struct{}),
		drained:   make(chan struct{}),
	}
}

// resultHold keeps a finished allreduce job's buffers alive until the
// last result frame borrowing from them is written: one reference per
// request in the (possibly fused) job. Result frames of one fused job
// go out through different sessions' writers, hence the lock.
type resultHold struct {
	mu      sync.Mutex
	ref     pool.Ref
	release func()
}

func newResultHold(parts int, release func()) *resultHold {
	h := &resultHold{release: release}
	h.ref.Init(int32(parts))
	return h
}

// drop releases one frame's reference; the last returns the buffers.
// A nil hold (a body the GC owns) is a no-op.
func (h *resultHold) drop() {
	if h == nil {
		return
	}
	h.mu.Lock()
	last := h.ref.Release("serve.resultHold")
	h.mu.Unlock()
	if last {
		h.release()
	}
}

// Sent drops the reference of a result frame the writer is done with.
func (h *resultHold) Sent(error) { h.drop() }

// send hands an encoded frame to the writer, which takes ownership:
// the writer recycles the pooled frame once it is on the socket (or
// at once, for a session that is already gone), so the caller must not
// touch it afterwards. It waits while the session's queue is full.
func (s *session) send(f []byte) {
	s.w.Send(0, frame.Out{Head: f, PoolHead: true})
}

// sessionError pushes a session-fatal typed error (request id 0): the
// client fails all pending and future calls with it.
func (s *session) sessionError(e *RequestError) {
	s.sessErrRaw.Store(true)
	s.send(encodeErr(errMsg{ID: 0, Code: e.Code, Msg: e.Msg}))
}

// beginShutdown (Server.Close) rejects new requests with CodeShutdown,
// lets in-flight work drain, then completes the Bye handshake and cuts
// the connection.
func (s *session) beginShutdown() {
	s.shutdown.Store(true)
	s.draining.Store(true)
	go func() {
		select {
		case <-s.drained:
			// Flush the Bye, then cut the connection to end the reader.
			s.send(encodeBye())
			s.w.Close()
			s.w.Wait()
			s.conn.Close()
		case <-s.gone:
		}
	}()
	s.maybeDrained()
}

func (s *session) maybeDrained() {
	if s.draining.Load() && s.pending.Load() == 0 {
		s.drainOnce.Do(func() { close(s.drained) })
	}
}

func (s *session) markGone() {
	s.goneOnce.Do(func() { close(s.gone) })
}

// errEndSession ends a session's reader once the frame just handled
// has answered the client (Close handshake, a rejected Hello).
var errEndSession = errors.New("serve: session ends")

// run is the session lifecycle: the reader loop on this goroutine
// beside the writer's, then teardown: the writer flushes what is still
// queued (a session-fatal rejection must reach the client, not race the
// close), then unbind, release the backend, unregister.
func (s *session) run() {
	defer s.srv.sessWG.Done()
	err := frame.NewDecoder("serve", maxFrameBody, s).Run(s.conn)
	var pe *ProtoError
	if errors.As(err, &pe) {
		s.send(encodeErr(errMsg{ID: 0, Code: CodeBadRequest, Msg: pe.Reason}))
	}
	// Any other end (EOF, teardown) is an abrupt close: in-flight work
	// completes into the void.
	s.markGone()
	s.w.Close()
	s.w.Wait()
	s.conn.Close()
	if s.be != nil {
		if s.proxyRank >= 0 {
			s.be.unbindProxy(s.proxyRank, s)
		}
		s.srv.releaseBackend(s.be)
	}
	s.srv.dropSession(s)
}

// Dispatch applies one client frame; it owns body. A reduce request
// takes the fast path: its values are the ranks' contributions.
func (s *session) Dispatch(typ byte, body []byte) error {
	if s.be != nil && (typ == cfAllreduce || typ == cfReduceFT) {
		s.handleReduce(s.reduceID, body, typ == cfReduceFT)
		return nil
	}
	msg, err := s.msg(typ, body)
	if err != nil {
		releaseFrame(body)
		return err
	}
	if m, ok := msg.(isendMsg); ok && s.be != nil {
		// The job owns the send data, read straight into its pooled
		// buffer, until the send completes.
		s.handleProxyOp(m.ID, &job{
			kind: jobIsend, sess: s, opID: m.ID, peer: m.Dst, tag: m.Tag,
			msg: comm.Msg{Data: m.Data, Size: m.Size},
		})
		return nil
	}
	// Every other frame is consumed here: parsed messages copy out what
	// they keep, so the body goes back to the pool.
	more := s.handleFrame(typ, msg)
	releaseFrame(body)
	if !more {
		return errEndSession
	}
	return nil
}

// handleFrame applies one non-reduce, non-isend frame (or any frame
// before the Hello); false ends the session.
func (s *session) handleFrame(typ byte, msg any) bool {
	if s.be == nil {
		// First frame must be Hello.
		hello, ok := msg.(helloMsg)
		if !ok {
			s.send(encodeErr(errMsg{ID: 0, Code: CodeBadRequest, Msg: "first frame must be hello"}))
			return false
		}
		return s.handleHello(hello)
	}
	switch typ {
	case cfHello:
		s.send(encodeErr(errMsg{ID: 0, Code: CodeBadRequest, Msg: "duplicate hello"}))
		return false
	case cfIrecv:
		m := msg.(irecvMsg)
		s.handleProxyOp(m.ID, &job{
			kind: jobIrecv, sess: s, opID: m.ID, peer: m.Src, tag: m.Tag,
		})
	case cfClose:
		s.handleClose()
		return false
	}
	return true
}

// handleHello binds the session to its (possibly cached) backend.
func (s *session) handleHello(m helloMsg) bool {
	key := backendKey{world: m.World, group: m.Group, tagspace: m.TagSpace, proxy: m.ProxyRank >= 0}
	b, err := s.srv.backendFor(key)
	if err != nil {
		s.send(encodeErr(errMsg{ID: 0, Code: codeOf(err), Msg: err.Error()}))
		return false
	}
	if m.ProxyRank >= 0 {
		if err := b.bindProxy(m.ProxyRank, s); err != nil {
			s.srv.releaseBackend(b)
			s.send(encodeErr(errMsg{ID: 0, Code: codeOf(err), Msg: err.Error()}))
			return false
		}
		s.proxyRank = m.ProxyRank
	}
	s.be = b
	s.send(encodeWelcome(welcomeMsg{Session: s.id, Gen: b.gen}))
	return true
}

// admit performs session-level admission for one request; on rejection
// the typed error frame is already sent.
func (s *session) admit(id uint64) bool {
	if s.shutdown.Load() || s.draining.Load() {
		s.send(encodeErr(errMsg{ID: id, Code: CodeShutdown, Msg: "session draining"}))
		return false
	}
	if int(s.pending.Load()) >= s.srv.cfg.SessionPending {
		s.srv.stOverloads.Add(1)
		perf.RecordServeOverload()
		s.send(encodeErr(errMsg{ID: id, Code: CodeOverloaded, Msg: "session in-flight cap reached"}))
		return false
	}
	mSessPending.Observe(uint64(s.pending.Add(1)))
	// Re-check after the increment: beginShutdown stores draining and
	// then consults pending, so a pre-increment check alone lets Close
	// land in the gap, see pending==0, and declare the session drained
	// with this request still in flight. With both sides writing before
	// reading, either this re-check sees draining or maybeDrained sees
	// the increment — the request is rejected or counted, never dropped.
	if s.draining.Load() {
		s.pending.Add(-1)
		s.maybeDrained()
		s.send(encodeErr(errMsg{ID: id, Code: CodeShutdown, Msg: "session draining"}))
		return false
	}
	return true
}

// respond delivers one request's outcome and credits the session's
// in-flight budget. A result's bytes go out as the frame's body where
// they lie; hold, when non-nil, keeps them alive until written. The
// credit comes after the frame is queued, so a client that does not
// read holds admission at SessionPending (sessionQueue).
func (s *session) respond(id uint64, out []byte, mask []bool, hold *resultHold, err error) {
	if err != nil {
		s.send(encodeErr(errMsg{ID: id, Code: codeOf(err), Msg: err.Error()}))
		hold.drop()
	} else {
		s.w.Send(0, frame.Out{Head: encodeResultHead(resultMsg{ID: id, Mask: mask, Data: out}),
			PoolHead: true, Body: out, Hook: hold})
	}
	s.srv.stResponses.Add(1)
	s.pending.Add(-1)
	s.maybeDrained()
}

// handleReduce admits one reduce request. It owns raw, the pooled
// frame body whose value bytes are the ranks' contributions: a
// rejection recycles it at once, an FT request once submitFT has copied
// the contributions out, and an allreduce once its result frame is
// written (submitFused).
func (s *session) handleReduce(id uint64, raw []byte, ft bool) {
	reject := func(msg string) {
		releaseFrame(raw)
		s.send(encodeErr(errMsg{ID: id, Code: CodeBadRequest, Msg: msg}))
	}
	vals := len(raw) / 8
	if s.be.key.proxy {
		reject("proxy session serves point-to-point ops only")
		return
	}
	if vals%s.be.n != 0 {
		reject(fmt.Sprintf("%d values not divisible by world %d", vals, s.be.n))
		return
	}
	if s.be.armed && !ft {
		reject("crash-armed group serves FT requests only")
		return
	}
	if !s.admit(id) {
		releaseFrame(raw)
		return
	}
	s.srv.stRequests.Add(1)
	perf.RecordServeRequest()
	mReqBytes.Add(uint64(len(raw)))
	elems := vals / s.be.n
	deliver := func(out []byte, mask []bool, hold *resultHold, err error) {
		s.respond(id, out, mask, hold, err)
	}
	// Latency brackets only exist while telemetry is on: a zero Clock
	// start means no closure, no timestamp, nothing recorded.
	if t0 := metrics.Clock(); t0 != 0 {
		h := mLatAllreduce
		if ft {
			h = mLatReduceFT
		}
		inner := deliver
		deliver = func(out []byte, mask []bool, hold *resultHold, err error) {
			h.ObserveSince(t0)
			inner(out, mask, hold, err)
		}
	}
	if ft {
		s.be.submitFT(raw, elems, func(out []byte, mask []bool, err error) {
			deliver(out, mask, nil, err)
		})
		releaseFrame(raw)
	} else {
		s.be.fuse.add(fusePart{raw: raw, deliver: deliver}, elems)
	}
}

// handleProxyOp queues one point-to-point op on the bound rank. A
// rejected send's payload goes back to the pool at once.
func (s *session) handleProxyOp(id uint64, j *job) {
	if s.proxyRank < 0 {
		j.dropPayload()
		s.send(encodeErr(errMsg{ID: id, Code: CodeBadRequest, Msg: "session is not rank-bound"}))
		return
	}
	if s.shutdown.Load() || s.draining.Load() {
		j.dropPayload()
		s.send(encodeErr(errMsg{ID: id, Code: CodeShutdown, Msg: "session draining"}))
		return
	}
	s.pending.Add(1)
	// Same increment-then-re-check as admit: beginShutdown racing this
	// admission must either be observed here or observe the increment.
	if s.draining.Load() {
		j.dropPayload()
		s.pending.Add(-1)
		s.maybeDrained()
		s.send(encodeErr(errMsg{ID: id, Code: CodeShutdown, Msg: "session draining"}))
		return
	}
	s.srv.stProxyOps.Add(1)
	j.t0 = metrics.Clock()
	if err := s.be.submitProxy(s.proxyRank, j); err != nil {
		j.dropPayload()
		s.pending.Add(-1)
		s.maybeDrained()
		s.send(encodeErr(errMsg{ID: id, Code: codeOf(err), Msg: err.Error()}))
	}
}

// opDone reports a finished proxy op back to the client. Failed ops
// (e.g. a send timing out under chaos) travel as a typed error frame
// carrying the op id, which the client folds back into the Status.
func (s *session) opDone(id uint64, st comm.Status) {
	if st.Err != nil {
		s.send(encodeErr(errMsg{ID: id, Code: codeOf(st.Err), Msg: st.Err.Error()}))
		s.srv.stResponses.Add(1)
		s.pending.Add(-1)
		s.maybeDrained()
		return
	}
	m := opDoneMsg{ID: id, Source: st.Source, Tag: st.Tag, Size: st.Msg.Size}
	if st.Msg.Data != nil {
		m.HasData = true
		m.Data = st.Msg.Data
	}
	s.send(encodeOpDone(m))
	if m.HasData {
		// Only a receive's status carries data (retire strips a send's):
		// the substrate's pooled receive copy, dead once encoded.
		comm.PutBuf(m.Data)
	}
	s.srv.stResponses.Add(1)
	s.pending.Add(-1)
	s.maybeDrained()
}

// handleClose drains in-flight work, then completes the Bye handshake.
func (s *session) handleClose() {
	drainT0 := metrics.Clock()
	s.draining.Store(true)
	s.maybeDrained()
	defer mDrainSession.ObserveSince(drainT0)
	select {
	case <-s.drained:
	case <-time.After(s.srv.cfg.DrainTimeout):
	case <-s.gone:
		return
	}
	// Free the proxy rank before the Bye: a client whose Close returned
	// may rebind it at once, before run() tears this session down.
	if s.proxyRank >= 0 {
		s.be.unbindProxy(s.proxyRank, s)
	}
	s.send(encodeBye())
}

// codeOf extracts the wire code from a typed error (Internal otherwise).
func codeOf(err error) Code {
	var re *RequestError
	if errors.As(err, &re) {
		return re.Code
	}
	return CodeInternal
}
