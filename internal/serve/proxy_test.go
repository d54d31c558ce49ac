package serve

import (
	"bytes"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"adapt/internal/comm"
	"adapt/internal/perf"
)

// TestProxyPingPong drives the daemon-backed comm.Comm adapter with raw
// point-to-point traffic: eager and rendezvous-sized messages both ways,
// with data, sources, and tags intact.
func TestProxyPingPong(t *testing.T) {
	srv := newTestServer(t, Config{DrainTimeout: 2 * time.Second})
	const world = 2
	opts := func(r int) SessionOpts {
		return SessionOpts{World: world, Group: "pp", ProxyRank: r}
	}
	s0, err := Dial(srv.Addr(), opts(0))
	if err != nil {
		t.Fatalf("Dial rank 0: %v", err)
	}
	defer s0.Close()
	s1, err := Dial(srv.Addr(), opts(1))
	if err != nil {
		t.Fatalf("Dial rank 1: %v", err)
	}
	defer s1.Close()
	c0, c1 := s0.Comm(), s1.Comm()
	if c0.Rank() != 0 || c0.Size() != world || c1.Rank() != 1 {
		t.Fatalf("adapter identity: rank %d size %d / rank %d", c0.Rank(), c0.Size(), c1.Rank())
	}

	for _, size := range []int{64, 64 * 1024} { // eager and rendezvous
		payload := make([]byte, size)
		for i := range payload {
			payload[i] = byte(i * 31)
		}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			c0.Send(1, comm.Tag(7), comm.Bytes(payload))
		}()
		st := c1.Recv(0, comm.Tag(7))
		wg.Wait()
		if st.Err != nil {
			t.Fatalf("size %d: recv error: %v", size, st.Err)
		}
		if st.Source != 0 || st.Tag != comm.Tag(7) {
			t.Fatalf("size %d: status source %d tag %d", size, st.Source, st.Tag)
		}
		if !bytes.Equal(st.Msg.Data, payload) {
			t.Fatalf("size %d: payload corrupted in transit", size)
		}
		// Reply the other way with a transformed payload.
		reply := append([]byte(nil), st.Msg.Data...)
		for i := range reply {
			reply[i] ^= 0xff
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			c1.Send(0, comm.Tag(9), comm.Bytes(reply))
		}()
		back := c0.Recv(1, comm.Tag(9))
		wg.Wait()
		if back.Err != nil || !bytes.Equal(back.Msg.Data, reply) {
			t.Fatalf("size %d: reply corrupted (err %v)", size, back.Err)
		}
	}
}

// proxyTraffic sends msgs proxy messages of size bytes from rank 0 to
// rank 1 of a fresh two-rank proxy group, the receiver returning each
// payload with PutBuf, and closes both sessions. It returns the pool
// buffers still out (gets minus retained puts) and the heap bytes the
// process allocated meanwhile.
func proxyTraffic(t *testing.T, group string, msgs, size int) (out int64, heap uint64) {
	t.Helper()
	const world = 2
	srv := newTestServer(t, Config{DrainTimeout: 2 * time.Second})
	var sess [world]*Session
	for r := range sess {
		s, err := Dial(srv.Addr(), SessionOpts{World: world, Group: group, ProxyRank: r})
		if err != nil {
			t.Fatalf("Dial rank %d: %v", r, err)
		}
		sess[r] = s
	}
	c0, c1 := sess[0].Comm(), sess[1].Comm()
	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	before := perf.Read()
	for i := 0; i < msgs; i++ {
		done := make(chan comm.Status, 1)
		go func() { done <- c0.Wait(c0.Isend(1, comm.Tag(5), comm.Bytes(payload))) }()
		st := c1.Recv(0, comm.Tag(5))
		if sst := <-done; sst.Err != nil {
			t.Fatalf("send %d: %v", i, sst.Err)
		}
		if st.Err != nil || !bytes.Equal(st.Msg.Data, payload) {
			t.Fatalf("recv %d: payload corrupted (err %v)", i, st.Err)
		}
		comm.PutBuf(st.Msg.Data)
	}
	for _, s := range sess {
		s.Close()
	}
	d := perf.Read().Delta(before)
	runtime.ReadMemStats(&m1)
	out = int64(d.BufGets) - int64(d.BufRecycled) // a buffer got before the window may return in it
	heap = m1.TotalAlloc - m0.TotalAlloc
	t.Logf("pool: %d gets, %d puts, %d retained, %d outstanding; %d heap bytes allocated",
		d.BufGets, d.BufPuts, d.BufRecycled, out, heap)
	return out, heap
}

// TestProxyRecvRecycles: the proxy plane's receive payloads circulate
// through the segment-buffer pool. The daemon returns its receive copy
// once the op-done frame is encoded, and the client hands the receiver
// a pooled copy of the frame's data, so a receiver that returns it with
// PutBuf leaves nothing to the GC: after 100 sends of 64 KiB and both
// sessions closed, at most 4 pool buffers are still out.
func TestProxyRecvRecycles(t *testing.T) {
	const msgs = 100
	if out, _ := proxyTraffic(t, "recycle", msgs, 64<<10); out > 4 {
		t.Errorf("%d pool buffers outstanding after %d proxy messages: the receive path leaves them to the GC", out, msgs)
	}
}

// TestProxySendRecycles is the send-side twin: the daemon copies each
// proxy send's payload out of its request frame into a pooled buffer
// that the job returns once the send completes, so 100 sends of 64 KiB
// leave at most 4 pool buffers out and allocate well under one payload
// per send on the heap.
func TestProxySendRecycles(t *testing.T) {
	const msgs, size = 100, 64 << 10
	out, heap := proxyTraffic(t, "recycle-send", msgs, size)
	if out > 4 {
		t.Errorf("%d pool buffers outstanding after %d proxy sends: the send path leaves them to the GC", out, msgs)
	}
	if heap > msgs*size/2 {
		t.Errorf("%d heap bytes allocated over %d proxy sends of %d B: the send path copies into plain allocations", heap, msgs, size)
	}
}

// TestProxyNonBlockingAndCallbacks covers Isend/Irecv/WaitAny/OnComplete
// semantics of the adapter: callbacks fire on the owner goroutine from
// inside Wait/Progress, wildcard receives resolve sources.
func TestProxyNonBlockingAndCallbacks(t *testing.T) {
	srv := newTestServer(t, Config{DrainTimeout: 2 * time.Second})
	const world = 3
	sessions := make([]*Session, world)
	for r := 0; r < world; r++ {
		s, err := Dial(srv.Addr(), SessionOpts{World: world, Group: "nb", ProxyRank: r})
		if err != nil {
			t.Fatalf("Dial rank %d: %v", r, err)
		}
		defer s.Close()
		sessions[r] = s
	}
	var wg sync.WaitGroup
	for r := 1; r < world; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := sessions[r].Comm()
			c.Send(0, comm.Tag(int64(r)), comm.Bytes([]byte{byte(r)}))
		}()
	}
	c0 := sessions[0].Comm()
	fired := 0
	// OnComplete takes over the wildcard receive's handle, so only the
	// other one goes to WaitAny; the callback is driven by Progress.
	c0.OnComplete(c0.Irecv(comm.AnySource, comm.Tag(1)), func(st comm.Status) {
		if st.Source != 1 {
			t.Errorf("wildcard-source recv matched source %d, want 1", st.Source)
		}
		fired++
	})
	if _, st := c0.WaitAny([]comm.Request{nil, c0.Irecv(2, comm.AnyTag)}); st.Err != nil || st.Source != 2 {
		t.Fatalf("recv from rank 2: source %d, err %v", st.Source, st.Err)
	}
	for fired == 0 {
		c0.Progress()
	}
	wg.Wait()
	if fired != 1 {
		t.Fatalf("OnComplete fired %d times, want 1", fired)
	}
}

// TestProxyRankExclusivity: one live proxy session per rank; rebinding a
// bound rank is a typed BadRequest, and the slot frees on close.
func TestProxyRankExclusivity(t *testing.T) {
	srv := newTestServer(t, Config{DrainTimeout: 2 * time.Second})
	opts := SessionOpts{World: 2, Group: "x", ProxyRank: 0}
	s1, err := Dial(srv.Addr(), opts)
	if err != nil {
		t.Fatalf("Dial 1: %v", err)
	}
	if _, err := Dial(srv.Addr(), opts); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("double bind: got %v, want typed BadRequest", err)
	}
	s1.Close()
	s2, err := Dial(srv.Addr(), opts)
	if err != nil {
		t.Fatalf("rebind after close: %v", err)
	}
	s2.Close()
}

// TestProxyNilRequests: WaitAll and WaitAny skip nil entries (inactive
// handles, as with MPI_REQUEST_NULL) on the daemon-backed adapter, the
// same rule every substrate's engine applies.
func TestProxyNilRequests(t *testing.T) {
	srv := newTestServer(t, Config{DrainTimeout: 2 * time.Second})
	const world = 2
	sessions := make([]*Session, world)
	for r := 0; r < world; r++ {
		s, err := Dial(srv.Addr(), SessionOpts{World: world, Group: "nil", ProxyRank: r})
		if err != nil {
			t.Fatalf("Dial rank %d: %v", r, err)
		}
		defer s.Close()
		sessions[r] = s
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c1 := sessions[1].Comm()
		c1.Send(0, comm.Tag(1), comm.Bytes([]byte{1}))
		c1.Send(0, comm.Tag(2), comm.Bytes([]byte{2}))
	}()
	c0 := sessions[0].Comm()
	all := []comm.Request{nil, c0.Irecv(1, comm.Tag(1)), nil}
	c0.WaitAll(all)
	if st, ok := all[1].Test(); !ok || st.Err != nil || st.Msg.Data[0] != 1 {
		t.Fatalf("WaitAll: live entry status %+v done %v", st, ok)
	}
	i, st := c0.WaitAny([]comm.Request{nil, c0.Irecv(1, comm.Tag(2))})
	if i != 1 || st.Err != nil || st.Msg.Data[0] != 2 {
		t.Fatalf("WaitAny: index %d status %+v, want index 1 with payload 2", i, st)
	}
	wg.Wait()
}

// TestProxyFailedOpsNameSourceAndTag: a proxy op failed by session loss
// carries its posted peer and tag like every substrate's failure status,
// so collectives whose receive handlers decode child and segment from
// the status can run over the proxy.
func TestProxyFailedOpsNameSourceAndTag(t *testing.T) {
	// The drain on close gives up on the stranded receive after this.
	srv := newTestServer(t, Config{DrainTimeout: 100 * time.Millisecond})
	s, err := Dial(srv.Addr(), SessionOpts{World: 2, Group: "lost", ProxyRank: 0})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	c := s.Comm()
	tag := comm.MakeTag(comm.KindReduce, 3, 9)
	inflight := c.Irecv(1, tag) // rank 1 never joins
	s.Close()
	check := func(what string, st comm.Status, src int) {
		t.Helper()
		if st.Err == nil || st.Source != src || st.Tag != tag {
			t.Errorf("%s: status source %d tag %v err %v, want source %d tag %v and an error",
				what, st.Source, st.Tag, st.Err, src, tag)
		}
	}
	check("in-flight receive", c.Wait(inflight), 1)
	check("receive after loss", c.Wait(c.Irecv(1, tag)), 1)
	check("send after loss", c.Wait(c.Isend(1, tag, comm.Sized(8))), 0)
}
