package frame

import (
	"net"
	"sync"

	"adapt/internal/comm"
)

// Out is one outgoing frame: Head, then Body sent from where it lies.
// Once the frame is written, or will never be, the writer returns Head
// and Body to the segment-buffer pool as PoolHead and PoolBody say and
// tells Hook the outcome.
type Out struct {
	Head, Body         []byte
	PoolHead, PoolBody bool
	Hook               Hook
}

// Hook observes an outgoing frame's fate: Sent runs once, with nil when
// the frame is on the socket, else the write error or the reason the
// frame was dropped. A rendezvous send completes in it; a borrowed body
// is released in it.
type Hook interface {
	Sent(err error)
}

// settle releases f's buffers and runs its hook.
func (f *Out) settle(err error) {
	if f.PoolHead {
		comm.PutBuf(f.Head)
	}
	if f.PoolBody && len(f.Body) > 0 {
		comm.PutBuf(f.Body)
	}
	if f.Hook != nil {
		f.Hook.Sent(err)
	}
}

// maxBatch caps the frames one vectored write carries.
const maxBatch = 32

// Writer is the one socket writer of a set of connections: one goroutine
// draining one queue per connection round-robin. Each service takes a
// queue's whole backlog and writes it as vectored writes (net.Buffers,
// writev) of up to maxBatch frames, so frames that pile up while another
// queue is being served coalesce into few syscalls. Without a limit a
// caller never blocks on a socket: nettransport's I/O loop enqueues
// grants and payloads and would deadlock two ranks bulk-sending to each
// other through bounded queues. With one, a connection whose peer stops
// reading stalls whoever produces its frames, so the frames held for it
// stay bounded.
type Writer struct {
	limit   int
	onWrite func(n int)
	onErr   func(q int, err error)

	mu      sync.Mutex
	cond    sync.Cond // the writer goroutine waits here for frames
	space   sync.Cond // a Send held by the limit waits here for room
	qs      []queue
	closing bool  // drain what is queued, then stop
	rr      int   // next queue to service (fairness cursor)
	spare   []Out // the last batch's backing array, for the next backlog

	done chan struct{} // writer goroutine exited
	bufs net.Buffers   // writev scratch, writer goroutine only
}

type queue struct {
	conn   net.Conn
	frames []Out
	dead   bool  // drop frames: the peer is gone or the write failed
	werr   error // the first write error or kill reason
}

// NewWriter starts the writer for conns; queue i writes to conns[i] (a
// nil entry is a queue nothing is sent on). A positive limit caps each
// queue's backlog: Send waits while its queue holds limit frames; 0
// leaves the queues unbounded. onWrite, if set, hears the wire size of
// every frame written; onErr, if set, hears of a failed write on queue
// i, except while the writer is closing.
func NewWriter(conns []net.Conn, limit int, onWrite func(n int), onErr func(q int, err error)) *Writer {
	w := &Writer{limit: limit, onWrite: onWrite, onErr: onErr,
		qs: make([]queue, len(conns)), done: make(chan struct{})}
	w.cond.L = &w.mu
	w.space.L = &w.mu
	for i, c := range conns {
		w.qs[i].conn = c
	}
	go w.run()
	return w
}

// Send queues f on queue q; the writer owns it from here. Under a limit
// it first waits for room in the queue. A frame for a dead queue or a
// closing writer is settled at once with the reason.
func (w *Writer) Send(q int, f Out) {
	w.mu.Lock()
	qq := &w.qs[q]
	for w.limit > 0 && len(qq.frames) >= w.limit && !w.closing && !qq.dead {
		w.space.Wait()
	}
	if w.closing || qq.dead {
		err := qq.werr
		w.mu.Unlock()
		if err == nil {
			err = net.ErrClosed
		}
		f.settle(err)
		return
	}
	qq.frames = append(qq.frames, f)
	w.cond.Signal()
	w.mu.Unlock()
}

// Backlog returns the frames queued on q and not yet taken for a write.
func (w *Writer) Backlog(q int) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.qs[q].frames)
}

// Kill marks queue q dead with err and settles its backlog: frames
// already taken for a write still go to the socket.
func (w *Writer) Kill(q int, err error) {
	w.mu.Lock()
	qq := &w.qs[q]
	qq.dead = true
	if qq.werr == nil {
		qq.werr = err
	}
	backlog := qq.frames
	qq.frames = nil
	err = qq.werr
	w.space.Broadcast()
	w.mu.Unlock()
	for i := range backlog {
		backlog[i].settle(err)
	}
}

// Close stops accepting frames and lets the writer drain what is queued
// and exit; Wait waits for that.
func (w *Writer) Close() {
	w.mu.Lock()
	w.closing = true
	w.cond.Signal()
	w.space.Broadcast()
	w.mu.Unlock()
}

// Wait returns once the writer goroutine has exited.
func (w *Writer) Wait() { <-w.done }

// run is the writer goroutine: pick the next non-empty queue
// round-robin, take its whole backlog, write it, repeat. It exits once
// the writer is closing and every queue has drained.
func (w *Writer) run() {
	defer close(w.done)
	w.mu.Lock()
	for {
		idx := -1
		for i := range w.qs {
			if r := (w.rr + i) % len(w.qs); len(w.qs[r].frames) > 0 {
				idx = r
				break
			}
		}
		if idx < 0 {
			if w.closing {
				w.mu.Unlock()
				return
			}
			w.cond.Wait()
			continue
		}
		q := &w.qs[idx]
		batch := q.frames
		q.frames = w.spare
		w.rr = idx + 1
		if w.limit > 0 {
			w.space.Broadcast()
		}
		w.mu.Unlock()
		w.write(idx, batch)
		clear(batch)
		w.mu.Lock()
		w.spare = batch[:0]
	}
}

// write puts a backlog on queue q's socket and settles every frame
// against the outcome. A failed write kills the queue and, outside
// Close, is reported to onErr.
func (w *Writer) write(q int, batch []Out) {
	conn := w.qs[q].conn
	var err error
	for len(batch) > 0 {
		chunk := batch[:min(len(batch), maxBatch)]
		batch = batch[len(chunk):]
		if err == nil {
			for _, f := range chunk {
				w.bufs = append(w.bufs, f.Head)
				if len(f.Body) > 0 {
					w.bufs = append(w.bufs, f.Body)
				}
			}
			// WriteTo consumes the slice header it is called on; hand it
			// a copy so the scratch array survives for the next write.
			bufs := w.bufs
			_, err = bufs.WriteTo(conn)
			clear(w.bufs)
			w.bufs = w.bufs[:0]
		}
		for i := range chunk {
			if err == nil && w.onWrite != nil {
				w.onWrite(len(chunk[i].Head) + len(chunk[i].Body))
			}
			chunk[i].settle(err)
		}
	}
	if err == nil {
		return
	}
	w.Kill(q, err)
	w.mu.Lock()
	closing := w.closing
	w.mu.Unlock()
	if !closing && w.onErr != nil {
		w.onErr(q, err)
	}
}
