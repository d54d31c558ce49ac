//go:build !linux

package nettransport

import (
	"errors"
	"io"
	"sync"
)

// threadLoop is the portable fallback readiness driver: one blocking
// reader goroutine per connection feeding the same incremental decoder
// as the Linux epoll loop. Correctness is identical; only the goroutine
// count differs (O(peers) instead of O(1)).
type threadLoop struct {
	c  *Comm
	wg sync.WaitGroup
}

// startIO launches one reader per live connection.
func startIO(c *Comm) (ioLoop, error) {
	l := &threadLoop{c: c}
	for _, cs := range c.conns {
		if cs == nil {
			continue
		}
		l.wg.Add(1)
		go l.read(cs)
	}
	return l, nil
}

// read drives one connection's decoder with blocking reads.
func (l *threadLoop) read(cs *connState) {
	defer l.wg.Done()
	c := l.c
	for {
		var dst []byte
		direct := cs.wantDirect()
		switch {
		case direct:
			dst = cs.directDst()
		case cs.draining:
			dst = cs.buf
		default:
			cs.compact()
			dst = cs.buf[cs.w:]
		}
		n, err := cs.conn.Read(dst)
		if n > 0 {
			var perr error
			switch {
			case direct:
				perr = c.advanceDirect(cs, n)
			case cs.draining:
				// discard
			default:
				cs.w += n
				perr = c.drainStaged(cs)
			}
			if perr != nil {
				c.abort(cs)
				c.ioError(cs, perr)
				return
			}
		}
		if err != nil {
			if cs.draining {
				c.abort(cs)
				return // clean Bye shutdown
			}
			if errors.Is(err, io.EOF) && cs.midFrame() {
				err = io.ErrUnexpectedEOF // cut inside a frame, not at a boundary
			}
			c.abort(cs)
			c.ioError(cs, err)
			return
		}
	}
}

// stop unblocks the readers by closing the connections, then waits for
// them to exit. The double close at teardown is harmless.
func (l *threadLoop) stop() {
	for _, cs := range l.c.conns {
		if cs != nil {
			cs.conn.Close()
		}
	}
	l.wg.Wait()
}
