//go:build !linux

package nettransport

import "sync"

// threadLoop is the portable readiness driver: one goroutine per
// connection running the decoder's blocking driver (frame.Decoder.Run).
// Correctness is identical to the Linux epoll loop; only the goroutine
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
		go func(cs *connState) {
			defer l.wg.Done()
			if err := cs.dec.Run(cs.conn); err != nil {
				c.ioError(cs, err)
			}
		}(cs)
	}
	return l, nil
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
