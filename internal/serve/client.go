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

	wmu sync.Mutex // serializes frame writes

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

type callRes struct {
	data []byte
	mask []bool
	err  error
}

// Call is one in-flight asynchronous collective request.
type Call struct {
	s  *Session
	id uint64
	ch chan callRes
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
	if _, err := conn.Write(hello); err != nil {
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
	for {
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
		switch typ {
		case sfResult:
			m, err := parseResult(payload)
			if err != nil {
				fatal = err
				break
			}
			s.complete(m.ID, callRes{data: m.Data, mask: m.Mask})
		case sfErr:
			m, err := parseErr(payload)
			if err != nil {
				fatal = err
				break
			}
			re := &RequestError{Code: m.Code, Msg: m.Msg}
			if m.ID == 0 {
				fatal = re // session-fatal: fail everything
			} else if !s.tryComplete(m.ID, callRes{err: re}) && s.rc != nil {
				// Proxy ops report failures as typed error frames too.
				s.rc.complete(m.ID, comm.Status{Err: re})
			}
		case sfOpDone:
			m, err := parseOpDone(payload)
			if err != nil {
				fatal = err
				break
			}
			if s.rc == nil {
				fatal = protoErrf("op-done on service session")
				break
			}
			st := comm.Status{Source: m.Source, Tag: m.Tag}
			if m.HasData {
				st.Msg = comm.Bytes(m.Data)
				st.Msg.Size = m.Size
			} else {
				st.Msg = comm.Sized(m.Size)
			}
			s.rc.complete(m.ID, st)
		case sfBye:
			s.byeOnce.Do(func() { close(s.byeCh) })
		default:
			fatal = protoErrf("unexpected server frame type 0x%02x", typ)
		}
		if fatal != nil {
			break
		}
	}
	s.fail(fatal)
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

func (s *Session) complete(id uint64, res callRes) {
	s.tryComplete(id, res)
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

func (s *Session) writeFrame(frame []byte) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	_, err := s.conn.Write(frame)
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
	frame := encodeReduce(typ, id, vals)
	if err := s.writeFrame(frame); err != nil {
		s.complete(id, callRes{}) // retract registration
		return nil, err
	}
	return &Call{s: s, id: id, ch: ch}, nil
}

// Wait blocks for the call's outcome: summed elems float64s (and for FT
// calls the survivor mask).
func (c *Call) Wait() ([]float64, []bool, error) {
	res := <-c.ch
	if res.err != nil {
		return nil, nil, res.err
	}
	return bytesToFloats(res.data), res.mask, nil
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
