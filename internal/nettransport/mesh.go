package nettransport

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"time"

	"adapt/internal/faults"
	"adapt/internal/frame"
	"adapt/internal/perf"
)

// Mesh construction. Every pair of ranks shares one bidirectional TCP
// connection; the higher rank dials the lower rank's listener (so rank 0
// only accepts) and announces itself with an ident frame. Dials retry
// with the faults.Recovery exponential backoff — worker processes in a
// cluster start at different times, and the address map reaches them
// before every listener's accept loop is necessarily draining.

// dialPeer dials addr with exponential backoff and performs the ident
// handshake.
func dialPeer(addr string, selfRank int, rec faults.Recovery) (net.Conn, error) {
	var lastErr error
	for attempt := 0; attempt < rec.MaxAttempts; attempt++ {
		if attempt > 0 {
			perf.RecordNetDialRetry()
			time.Sleep(rec.Timeout(attempt - 1))
		}
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			lastErr = err
			continue
		}
		if tc, ok := conn.(*net.TCPConn); ok {
			tc.SetNoDelay(true)
		}
		if _, err := conn.Write(encodeIdent(selfRank)); err != nil {
			conn.Close()
			lastErr = err
			continue
		}
		return conn, nil
	}
	return nil, fmt.Errorf("nettransport: dial %s: %d attempts exhausted: %w", addr, rec.MaxAttempts, lastErr)
}

// readIdent consumes exactly the ident frame from a freshly accepted
// connection — no over-read, so the conn can be handed to the readiness
// loop with nothing buffered in user space.
func readIdent(conn net.Conn) (int, error) {
	var pfx [4]byte
	if _, err := io.ReadFull(conn, pfx[:]); err != nil {
		return -1, err
	}
	n := int(binary.LittleEndian.Uint32(pfx[:]))
	if n != 5 {
		return -1, fmt.Errorf("nettransport: ident frame body %d bytes, want 5", n)
	}
	var body [5]byte
	if _, err := io.ReadFull(conn, body[:]); err != nil {
		return -1, err
	}
	if body[0] != frameIdent {
		return -1, fmt.Errorf("nettransport: first frame type %d, want ident", body[0])
	}
	return int(binary.LittleEndian.Uint32(body[1:5])), nil
}

// joinMesh wires c to every peer given the full address map (indexed by
// rank). c's own listener must already be bound at addrs[c.rank]. On
// return every peer connection is established and the endpoint's send
// scheduler and readiness loop are running.
func (c *Comm) joinMesh(addrs []string) error {
	if len(addrs) != c.size {
		return fmt.Errorf("nettransport: address map has %d entries for a %d-rank world", len(addrs), c.size)
	}
	type dialed struct {
		rank int
		conn net.Conn
		err  error
	}
	results := make(chan dialed, c.size)
	// Dial every lower rank concurrently.
	for r := 0; r < c.rank; r++ {
		go func(r int) {
			conn, err := dialPeer(addrs[r], c.rank, c.cfg.dialRecovery)
			results <- dialed{rank: r, conn: conn, err: err}
		}(r)
	}
	// Accept every higher rank; the ident frame says who dialed.
	expect := c.size - 1 - c.rank
	go func() {
		for i := 0; i < expect; i++ {
			conn, err := c.ln.Accept()
			if err != nil {
				results <- dialed{rank: -1, err: err}
				return
			}
			if tc, ok := conn.(*net.TCPConn); ok {
				tc.SetNoDelay(true)
			}
			go func(conn net.Conn) {
				rank, err := readIdent(conn)
				if err != nil {
					conn.Close()
					results <- dialed{rank: -1, err: fmt.Errorf("nettransport: bad ident handshake: %v", err)}
					return
				}
				if rank <= c.rank || rank >= c.size {
					conn.Close()
					results <- dialed{rank: -1, err: fmt.Errorf("nettransport: ident from unexpected rank %d", rank)}
					return
				}
				results <- dialed{rank: rank, conn: conn}
			}(conn)
		}
	}()
	for i := 0; i < c.size-1; i++ {
		d := <-results
		if d.err != nil {
			return d.err
		}
		if c.conns[d.rank] != nil {
			return fmt.Errorf("nettransport: duplicate connection for rank %d", d.rank)
		}
		c.conns[d.rank] = newConnState(c, d.rank, d.conn)
	}
	conns := make([]net.Conn, c.size)
	for r, cs := range c.conns {
		if cs != nil {
			conns[r] = cs.conn
		}
	}
	c.w = frame.NewWriter(conns, 0, perf.RecordNetFrameOut, func(rank int, err error) {
		if !c.isClosed() {
			c.peerLost(rank, err)
		}
	})
	io, err := startIO(c)
	if err != nil {
		return err
	}
	c.io = io
	return nil
}
