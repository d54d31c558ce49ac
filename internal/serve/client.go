package serve

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"adapt/internal/comm"
)

// SessionOpts names the backend a client session binds to.
type SessionOpts struct {
	// World is the backend world size (required, ≥1).
	World int
	// Group isolates backends sharing a world size (tenant label).
	Group string
	// TagSpace isolates tag namespaces within a group.
	TagSpace int
	// ProxyRank, when ≥0, rank-binds the session for point-to-point
	// proxy operations (the RemoteComm adapter). -1 (default via
	// NewSessionOpts) requests a service session.
	ProxyRank int
}

// Session is a client connection to an adaptd daemon.
type Session struct {
	conn net.Conn
	id   uint64
	gen  uint64

	wmu    sync.Mutex // serializes frame writes; guards head and iov
	head   [reduceHeadLen]byte
	iovArr [2][]byte
	iov    net.Buffers // a view of iovArr, consumed by each write

	mu      sync.Mutex
	calls   map[uint64]chan callRes // collective requests in flight
	nextID  uint64
	sessErr error // sticky session-fatal error
	closed  bool

	byeCh    chan struct{}
	byeOnce  sync.Once
	deadCh   chan struct{}
	deadOnce sync.Once

	rc *RemoteComm // non-nil on proxy sessions
}

// callRes is one call's outcome as the reader loop hands it over. data
// aliases body, the pooled result frame payload, which the call owns
// until Wait has decoded it.
type callRes struct {
	body []byte
	data []byte
	mask []bool
	err  error
}

// Call is one in-flight asynchronous collective request.
type Call struct {
	s  *Session
	id uint64
	ch chan callRes

	once sync.Once // Wait's decode-and-release runs once
	vals []float64
	mask []bool
	err  error
}

// Dial connects a new client session and completes the Hello/Welcome
// handshake.
func Dial(addr string, opts SessionOpts) (*Session, error) {
	if opts.World < 1 {
		return nil, fmt.Errorf("serve: dial: world %d < 1", opts.World)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	s := &Session{
		conn:   conn,
		calls:  map[uint64]chan callRes{},
		byeCh:  make(chan struct{}),
		deadCh: make(chan struct{}),
	}
	hello := encodeHello(helloMsg{
		Proto: protoVersion, World: opts.World, TagSpace: uint32(opts.TagSpace),
		ProxyRank: opts.ProxyRank, Group: opts.Group,
	})
	if err := s.writeFrame(hello); err != nil {
		conn.Close()
		return nil, err
	}
	// The Welcome (or the rejection) arrives before anything else.
	br := bufio.NewReaderSize(conn, 64*1024)
	typ, payload, err := readFrame(br)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("serve: dial handshake: %w", err)
	}
	defer releaseFrame(payload)
	switch typ {
	case sfWelcome:
		w, err := parseWelcome(payload)
		if err != nil {
			conn.Close()
			return nil, err
		}
		s.id, s.gen = w.Session, w.Gen
	case sfErr:
		m, err := parseErr(payload)
		conn.Close()
		if err != nil {
			return nil, err
		}
		return nil, &RequestError{Code: m.Code, Msg: m.Msg}
	default:
		conn.Close()
		return nil, protoErrf("handshake reply type 0x%02x", typ)
	}
	if opts.ProxyRank >= 0 {
		s.rc = newRemoteComm(s, opts.ProxyRank, opts.World)
	}
	go s.readLoop(br)
	return s, nil
}

// ID returns the server-assigned session id.
func (s *Session) ID() uint64 { return s.id }

// Gen returns the backend generation the session bound to; it changes
// when a degraded backend was evicted and rebuilt.
func (s *Session) Gen() uint64 { return s.gen }

// Err returns the sticky session-fatal error, if any.
func (s *Session) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sessErr
}

func (s *Session) readLoop(br *bufio.Reader) {
	var fatal error
	for fatal == nil {
		typ, payload, err := readFrame(br)
		if err != nil {
			select {
			case <-s.byeCh:
				// Clean shutdown: the daemon said Bye before hanging up.
			default:
				if !errors.Is(err, net.ErrClosed) {
					fatal = fmt.Errorf("serve: connection lost: %w", err)
				}
			}
			break
		}
		var keep bool
		keep, fatal = s.handleFrame(typ, payload)
		if !keep {
			releaseFrame(payload)
		}
	}
	s.fail(fatal)
}

// handleFrame applies one server frame. keep reports that the payload
// outlives the frame; a non-nil fatal ends the session.
func (s *Session) handleFrame(typ byte, payload []byte) (keep bool, fatal error) {
	msg, err := parseServerFrame(typ, payload)
	if err != nil {
		return false, err
	}
	switch m := msg.(type) {
	case resultMsg:
		// The call owns the payload until Wait decodes it.
		return s.tryComplete(m.ID, callRes{body: payload, data: m.Data, mask: m.Mask}), nil
	case errMsg:
		re := &RequestError{Code: m.Code, Msg: m.Msg}
		if m.ID == 0 {
			return false, re // session-fatal: fail everything
		}
		if !s.tryComplete(m.ID, callRes{err: re}) && s.rc != nil {
			// Proxy ops report failures as typed error frames too.
			s.rc.complete(m.ID, comm.Status{Err: re})
		}
	case opDoneMsg:
		if s.rc == nil {
			return false, protoErrf("op-done on service session")
		}
		s.rc.land(m)
	case byeMsg:
		s.byeOnce.Do(func() { close(s.byeCh) })
	default:
		return false, protoErrf("unexpected server frame type 0x%02x", typ)
	}
	return keep, nil
}

// fail marks the session dead and fails every pending call.
func (s *Session) fail(err error) {
	if err == nil {
		err = ErrSessionClosed
	}
	s.mu.Lock()
	if s.sessErr == nil {
		s.sessErr = err
	}
	err = s.sessErr
	pending := s.calls
	s.calls = map[uint64]chan callRes{}
	s.mu.Unlock()
	for _, ch := range pending {
		ch <- callRes{err: err}
	}
	if s.rc != nil {
		s.rc.fail(err)
	}
	s.deadOnce.Do(func() { close(s.deadCh) })
}

// tryComplete resolves one registered call, reporting whether id was
// known (proxy op ids live in the RemoteComm, not here).
func (s *Session) tryComplete(id uint64, res callRes) bool {
	s.mu.Lock()
	ch := s.calls[id]
	delete(s.calls, id)
	s.mu.Unlock()
	if ch != nil {
		ch <- res
	}
	return ch != nil
}

// writeFrame puts one encoded frame on the socket and recycles it: the
// caller hands over ownership of the pooled frame.
func (s *Session) writeFrame(frame []byte) error {
	s.wmu.Lock()
	_, err := s.conn.Write(frame)
	s.wmu.Unlock()
	releaseFrame(frame)
	return err
}

// register allocates a request id and its result channel.
func (s *Session) register() (uint64, chan callRes, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sessErr != nil {
		return 0, nil, s.sessErr
	}
	if s.closed {
		return 0, nil, ErrSessionClosed
	}
	s.nextID++
	id := s.nextID
	ch := make(chan callRes, 1)
	s.calls[id] = ch
	return id, ch, nil
}

// StartAllreduce submits one sum-allreduce of the session's
// world*elems contribution vector (rank-major) and returns without
// waiting — pipelining many calls is how clients generate load.
func (s *Session) StartAllreduce(vals []float64) (*Call, error) {
	return s.start(cfAllreduce, vals)
}

// StartReduceFT submits one fault-tolerant reduce; the result mask
// reports the survivor set.
func (s *Session) StartReduceFT(vals []float64) (*Call, error) {
	return s.start(cfReduceFT, vals)
}

func (s *Session) start(typ byte, vals []float64) (*Call, error) {
	id, ch, err := s.register()
	if err != nil {
		return nil, err
	}
	if err := s.writeReduce(typ, id, vals); err != nil {
		s.tryComplete(id, callRes{}) // retract registration
		return nil, err
	}
	return &Call{s: s, id: id, ch: ch}, nil
}

// writeReduce puts one reduce request on the socket. On a little-endian
// host vals already are the wire bytes: the head and a byte view of
// vals go out in one vectored write, with no frame buffer and no copy.
// A big-endian host encodes the frame (encodeReduce); the bytes on the
// wire are the same either way.
func (s *Session) writeReduce(typ byte, id uint64, vals []float64) error {
	body, ok := comm.Float64sWire(vals)
	if !ok {
		return s.writeFrame(encodeReduce(typ, id, vals))
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	putReduceHead(s.head[:], typ, id, len(vals))
	s.iovArr = [2][]byte{s.head[:], body}
	s.iov = s.iovArr[:]
	_, err := s.iov.WriteTo(s.conn)
	s.iovArr[1] = nil // the caller's values, no longer ours
	return err
}

// Wait blocks for the call's outcome: summed elems float64s (and for FT
// calls the survivor mask). It is idempotent and safe from several
// goroutines: the first Wait decodes the result and recycles its frame,
// and every Wait returns the same slices and error.
func (c *Call) Wait() ([]float64, []bool, error) {
	c.once.Do(func() {
		res := <-c.ch
		if res.err != nil {
			c.err = res.err
			return
		}
		c.vals, c.mask = comm.DecodeFloat64s(res.data), res.mask
		releaseFrame(res.body)
	})
	return c.vals, c.mask, c.err
}

// Allreduce is the blocking convenience wrapper.
func (s *Session) Allreduce(vals []float64) ([]float64, error) {
	call, err := s.StartAllreduce(vals)
	if err != nil {
		return nil, err
	}
	out, _, err := call.Wait()
	return out, err
}

// ReduceFT is the blocking fault-tolerant wrapper.
func (s *Session) ReduceFT(vals []float64) ([]float64, []bool, error) {
	call, err := s.StartReduceFT(vals)
	if err != nil {
		return nil, nil, err
	}
	return call.Wait()
}

// Comm returns the daemon-backed comm.Comm adapter of a rank-bound
// proxy session (nil on service sessions).
func (s *Session) Comm() *RemoteComm { return s.rc }

// Close drains the session with the Close/Bye handshake, then tears
// down the connection.
func (s *Session) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	dead := s.sessErr != nil
	s.mu.Unlock()
	if !dead {
		if err := s.writeFrame(encodeClose()); err == nil {
			select {
			case <-s.byeCh:
			case <-s.deadCh:
			case <-time.After(30 * time.Second):
			}
		}
	}
	err := s.conn.Close()
	<-s.deadCh // reader exits and fails any stragglers
	return err
}
