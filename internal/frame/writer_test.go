package frame

import (
	"bytes"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"adapt/internal/comm"
	"adapt/internal/perf"
)

// hookLog records the outcome of every frame it is attached to.
type hookLog struct {
	mu   sync.Mutex
	errs []error
}

func (h *hookLog) Sent(err error) {
	h.mu.Lock()
	h.errs = append(h.errs, err)
	h.mu.Unlock()
}

func (h *hookLog) outcomes() []error {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]error(nil), h.errs...)
}

// TestWriterDrainsInOrder: a backlog longer than one vectored write
// reaches the socket whole and in order, every hook hears nil, every
// pooled head and body goes back to the pool, and Close drains before
// the writer exits; a frame sent after Close is settled at once.
func TestWriterDrainsInOrder(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	var got bytes.Buffer
	read := make(chan error, 1)
	go func() { _, err := io.Copy(&got, b); read <- err }()

	p0 := perf.Read()
	hooks := &hookLog{}
	w := NewWriter([]net.Conn{nil, a}, 0, nil, nil)
	var want bytes.Buffer
	const frames = 3*maxBatch + 5
	for i := 0; i < frames; i++ {
		head := AppendHead(comm.GetBuf(HeadLen + 8)[:0], byte(i), 8)
		body := comm.GetBuf(8)
		for j := range body {
			body[j] = byte(i + j)
		}
		want.Write(head)
		want.Write(body)
		w.Send(1, Out{Head: head, Body: body, PoolHead: true, PoolBody: true, Hook: hooks})
	}
	w.Close()
	w.Wait()
	w.Send(1, Out{Head: []byte{1, 0, 0, 0, 9}, Hook: hooks})
	a.Close()
	if err := <-read; err != nil {
		t.Fatalf("reading the stream: %v", err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("socket got %d bytes, want the %d queued in order", got.Len(), want.Len())
	}
	errs := hooks.outcomes()
	if len(errs) != frames+1 {
		t.Fatalf("%d hooks ran, want %d", len(errs), frames+1)
	}
	for i, err := range errs[:frames] {
		if err != nil {
			t.Fatalf("frame %d settled with %v, want nil", i, err)
		}
	}
	if !errors.Is(errs[frames], net.ErrClosed) {
		t.Errorf("frame sent after Close settled with %v, want net.ErrClosed", errs[frames])
	}
	if d := perf.Read().Delta(p0); d.BufGets != d.BufRecycled {
		t.Errorf("%d pool gets, %d returned", d.BufGets, d.BufRecycled)
	}
}

// TestWriterKillAndWriteError: a killed queue settles its backlog and
// every later frame with the kill reason; a failed write kills its
// queue, settles the frame with the write error and reports it.
func TestWriterKillAndWriteError(t *testing.T) {
	a, b := net.Pipe()
	b.Close() // every write on a fails
	failed := make(chan int, 1)
	w := NewWriter([]net.Conn{a, nil}, 0, nil, func(q int, err error) { failed <- q })
	defer w.Wait()
	defer w.Close()

	hooks := &hookLog{}
	w.Send(0, Out{Head: []byte{1, 0, 0, 0, 1}, Hook: hooks})
	if q := <-failed; q != 0 {
		t.Fatalf("write error reported on queue %d, want 0", q)
	}
	w.Send(0, Out{Head: []byte{1, 0, 0, 0, 2}, Hook: hooks})
	errs := hooks.outcomes()
	if len(errs) != 2 || errs[0] == nil || errs[1] != errs[0] {
		t.Fatalf("outcomes %v: want the write error for the failed frame and the one after it", errs)
	}

	gone := errors.New("peer gone")
	w.Kill(1, gone)
	w.Send(1, Out{Head: []byte{1, 0, 0, 0, 3}, Hook: hooks})
	if errs := hooks.outcomes(); len(errs) != 3 || errs[2] != gone {
		t.Fatalf("frame on a killed queue settled with %v, want the kill reason", errs[2:])
	}
}

// TestWriterLimitHoldsSend: under a limit, a queue whose peer stops
// reading holds at most limit frames beside the batch being written,
// and a further Send waits; Kill releases the waiting Send with the
// kill reason.
func TestWriterLimitHoldsSend(t *testing.T) {
	a, b := net.Pipe() // nothing reads b: the first write never returns
	const limit, frames = 4, 10 * 4
	w := NewWriter([]net.Conn{a}, limit, nil, nil)
	hooks := &hookLog{}
	var sent atomic.Int32
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < frames; i++ {
			w.Send(0, Out{Head: []byte{1, 0, 0, 0, byte(i)}, Hook: hooks})
			sent.Add(1)
		}
	}()
	// The sender stalls once the queue is full.
	for last, still := int32(-1), 0; still < 10; time.Sleep(10 * time.Millisecond) {
		if n := sent.Load(); n != last {
			last, still = n, 0
		} else {
			still++
		}
	}
	n := int(sent.Load())
	if n <= limit || n > 2*limit {
		t.Fatalf("%d Sends returned with the peer not reading, want %d..%d", n, limit+1, 2*limit)
	}
	if q := w.Backlog(0); q != limit {
		t.Fatalf("backlog %d frames, want the limit %d", q, limit)
	}
	gone := errors.New("peer gone")
	w.Kill(0, gone)
	<-done
	b.Close() // fail the write in progress
	w.Close()
	w.Wait()
	errs := hooks.outcomes()
	if len(errs) != frames {
		t.Fatalf("%d hooks ran, want %d", len(errs), frames)
	}
	killed := 0
	for i, err := range errs {
		if err == nil {
			t.Errorf("frame %d reached a peer that never read", i)
		}
		if err == gone {
			killed++
		}
	}
	// Only the batch taken for the stuck write misses the kill.
	if want := frames - (n - limit); killed != want {
		t.Errorf("%d frames settled with the kill reason, want %d", killed, want)
	}
}
