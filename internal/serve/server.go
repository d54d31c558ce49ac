package serve

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"adapt/internal/comm"
	"adapt/internal/metrics"
	"adapt/internal/perf"
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
			conn.Write(encodeErr(errMsg{ID: 0, Code: CodeOverloaded, Msg: "session limit reached"}))
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
		b.refs++
		b.mu.Unlock()
		return b, nil
	}
	s.genNext[key]++
	b, err := newBackend(s, key, s.genNext[key])
	if err != nil {
		return nil, err
	}
	b.refs = 1
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
	idle := b.refs == 0
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
	b.refs--
	idle := b.refs == 0 && b.evicted
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

// session is one client connection's server-side state.
type session struct {
	id   uint64
	srv  *Server
	conn net.Conn

	be        *backend
	proxyRank int

	out        chan []byte // encoded frames for the writer goroutine
	gone       chan struct{}
	goneOnce   sync.Once
	pending    atomic.Int32
	draining   atomic.Bool
	shutdown   atomic.Bool
	drained    chan struct{}
	drainOnce  sync.Once
	sessErrRaw atomic.Bool
}

func newSession(s *Server, id uint64, conn net.Conn) *session {
	outCap := s.cfg.SessionPending + 8
	if outCap < 1024 {
		outCap = 1024 // proxy sessions stream many op completions
	}
	return &session{
		id:        id,
		srv:       s,
		conn:      conn,
		proxyRank: -1,
		out:       make(chan []byte, outCap),
		gone:      make(chan struct{}),
		drained:   make(chan struct{}),
	}
}

// send hands an encoded frame to the writer; drops it if the session is
// already gone (the client vanished mid-flight).
func (s *session) send(frame []byte) {
	select {
	case s.out <- frame:
	case <-s.gone:
	}
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
			s.send(encodeBye())
			s.send(nil)
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

// run is the session lifecycle: writer goroutine + reader loop, then
// teardown (unbind, release backend, unregister).
func (s *session) run() {
	defer s.srv.sessWG.Done()
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for {
			select {
			case frame := <-s.out:
				if frame == nil {
					// Sentinel: everything queued before it has flushed;
					// cut the connection to unblock the reader.
					s.conn.Close()
					return
				}
				if _, err := s.conn.Write(frame); err != nil {
					return
				}
			case <-s.gone:
				// Flush anything queued before teardown — a session-fatal
				// rejection must reach the client, not race the close.
				for {
					select {
					case frame := <-s.out:
						if frame == nil {
							s.conn.Close()
							return
						}
						if _, err := s.conn.Write(frame); err != nil {
							return
						}
					default:
						return
					}
				}
			}
		}
	}()

	s.reader()

	s.markGone()
	<-writerDone
	s.conn.Close()
	if s.be != nil {
		if s.proxyRank >= 0 {
			s.be.unbindProxy(s.proxyRank, s)
		}
		s.srv.releaseBackend(s.be)
	}
	s.srv.dropSession(s)
}

// reader consumes client frames until Close handshake, EOF, or a fatal
// protocol violation.
func (s *session) reader() {
	br := bufio.NewReaderSize(s.conn, 64*1024)
	for {
		typ, payload, err := readFrame(br)
		if err != nil {
			var pe *ProtoError
			if errors.As(err, &pe) {
				s.send(encodeErr(errMsg{ID: 0, Code: CodeBadRequest, Msg: pe.Reason}))
			}
			return // EOF/teardown: abrupt close, in-flight work completes into the void
		}
		msg, err := parseClientFrame(typ, payload)
		if err != nil {
			s.send(encodeErr(errMsg{ID: 0, Code: CodeBadRequest, Msg: err.Error()}))
			return
		}
		if s.be == nil {
			// First frame must be Hello.
			hello, ok := msg.(helloMsg)
			if !ok {
				s.send(encodeErr(errMsg{ID: 0, Code: CodeBadRequest, Msg: "first frame must be hello"}))
				return
			}
			if !s.handleHello(hello) {
				return
			}
			continue
		}
		switch typ {
		case cfHello:
			s.send(encodeErr(errMsg{ID: 0, Code: CodeBadRequest, Msg: "duplicate hello"}))
			return
		case cfAllreduce:
			s.handleReduce(msg.(reduceMsg), false)
		case cfReduceFT:
			s.handleReduce(msg.(reduceMsg), true)
		case cfIsend:
			m := msg.(isendMsg)
			if !s.handleProxyOp(m.ID, &job{
				kind: jobIsend, sess: s, opID: m.ID, peer: m.Dst, tag: m.Tag,
				msg: comm.Msg{Data: append([]byte(nil), m.Data...), Size: m.Size},
			}) {
				continue
			}
		case cfIrecv:
			m := msg.(irecvMsg)
			if !s.handleProxyOp(m.ID, &job{
				kind: jobIrecv, sess: s, opID: m.ID, peer: m.Src, tag: m.Tag,
			}) {
				continue
			}
		case cfClose:
			s.handleClose()
			return
		}
	}
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
// in-flight budget.
func (s *session) respond(id uint64, out []byte, mask []bool, err error) {
	if err != nil {
		s.send(encodeErr(errMsg{ID: id, Code: codeOf(err), Msg: err.Error()}))
	} else {
		s.send(encodeResult(resultMsg{ID: id, Mask: mask, Data: out}))
	}
	s.srv.stResponses.Add(1)
	s.pending.Add(-1)
	s.maybeDrained()
}

func (s *session) handleReduce(m reduceMsg, ft bool) {
	if s.be.key.proxy {
		s.send(encodeErr(errMsg{ID: m.ID, Code: CodeBadRequest, Msg: "proxy session serves point-to-point ops only"}))
		return
	}
	if len(m.Vals)%s.be.n != 0 {
		s.send(encodeErr(errMsg{ID: m.ID, Code: CodeBadRequest,
			Msg: fmt.Sprintf("%d values not divisible by world %d", len(m.Vals), s.be.n)}))
		return
	}
	if s.be.armed && !ft {
		s.send(encodeErr(errMsg{ID: m.ID, Code: CodeBadRequest, Msg: "crash-armed group serves FT requests only"}))
		return
	}
	if !s.admit(m.ID) {
		return
	}
	s.srv.stRequests.Add(1)
	perf.RecordServeRequest()
	mReqBytes.Add(uint64(len(m.Vals)) * 8)
	elems := len(m.Vals) / s.be.n
	id := m.ID
	deliver := func(out []byte, mask []bool, err error) { s.respond(id, out, mask, err) }
	// Latency brackets only exist while telemetry is on: a zero Clock
	// start means no closure, no timestamp, nothing recorded.
	if t0 := metrics.Clock(); t0 != 0 {
		h := mLatAllreduce
		if ft {
			h = mLatReduceFT
		}
		inner := deliver
		deliver = func(out []byte, mask []bool, err error) {
			h.ObserveSince(t0)
			inner(out, mask, err)
		}
	}
	if ft {
		s.be.submitFT(m.Vals, elems, deliver)
	} else {
		s.be.fuse.add(m.Vals, elems, deliver)
	}
}

// handleProxyOp queues one point-to-point op on the bound rank.
func (s *session) handleProxyOp(id uint64, j *job) bool {
	if s.proxyRank < 0 {
		s.send(encodeErr(errMsg{ID: id, Code: CodeBadRequest, Msg: "session is not rank-bound"}))
		return false
	}
	if s.shutdown.Load() || s.draining.Load() {
		s.send(encodeErr(errMsg{ID: id, Code: CodeShutdown, Msg: "session draining"}))
		return false
	}
	s.pending.Add(1)
	// Same increment-then-re-check as admit: beginShutdown racing this
	// admission must either be observed here or observe the increment.
	if s.draining.Load() {
		s.pending.Add(-1)
		s.maybeDrained()
		s.send(encodeErr(errMsg{ID: id, Code: CodeShutdown, Msg: "session draining"}))
		return false
	}
	s.srv.stProxyOps.Add(1)
	j.t0 = metrics.Clock()
	if err := s.be.submitProxy(s.proxyRank, j); err != nil {
		s.pending.Add(-1)
		s.maybeDrained()
		s.send(encodeErr(errMsg{ID: id, Code: codeOf(err), Msg: err.Error()}))
		return false
	}
	return true
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
	// Let the writer flush the tail before run() tears the conn down.
	s.send(nil)
}

func encodeBye() []byte { return appendFrame(nil, sfBye, nil) }

// codeOf extracts the wire code from a typed error (Internal otherwise).
func codeOf(err error) Code {
	var re *RequestError
	if errors.As(err, &re) {
		return re.Code
	}
	return CodeInternal
}
