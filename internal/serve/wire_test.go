package serve

import (
	"bytes"
	"io"
	"math"
	"net"
	"testing"

	"adapt/internal/comm"
)

// encodeResult builds a whole result frame, as the session writer puts
// it on the socket: the pooled head, then the payload.
func encodeResult(m resultMsg) []byte {
	return append(encodeResultHead(m), m.Data...)
}

// TestResultFrameWideMask pins the survivor-mask length field at 32
// bits: worlds up to maxWireWorld are legal, so an FT result's mask can
// be far longer than 255 entries and must round-trip rather than wrap
// into a length the parser rejects.
func TestResultFrameWideMask(t *testing.T) {
	data := comm.EncodeFloat64s([]float64{1.5, -2.25, 1e9})
	for _, n := range []int{0, 1, 255, 256, 300, maxWireWorld} {
		var mask []bool
		if n > 0 {
			mask = make([]bool, n)
			for i := range mask {
				mask[i] = i%3 != 0
			}
		}
		frame := encodeResult(resultMsg{ID: 7, Mask: mask, Data: data})
		decoded := false
		err := decodeStream(&respLog{each: func(typ byte, _ []byte, msg any) bool {
			m, ok := msg.(resultMsg)
			if typ != sfResult || !ok {
				t.Fatalf("mask %d: frame type %#x, want result", n, typ)
			}
			if m.ID != 7 {
				t.Fatalf("mask %d: id %d, want 7", n, m.ID)
			}
			if len(m.Mask) != n {
				t.Fatalf("mask %d: round-tripped to %d entries", n, len(m.Mask))
			}
			for i, alive := range m.Mask {
				if alive != mask[i] {
					t.Fatalf("mask %d: entry %d flipped", n, i)
				}
			}
			if !bytes.Equal(m.Data, data) {
				t.Fatalf("mask %d: payload corrupted", n)
			}
			decoded = true
			return true
		}}, bytes.NewReader(frame))
		if err != io.EOF || !decoded {
			t.Fatalf("mask %d: decoding the frame: %v", n, err)
		}
	}
}

// TestSessionWritesEncodeReduce captures what a Session puts on the
// socket for a reduce request — on a little-endian host the head and a
// byte view of the caller's values in one vectored write — and holds it
// byte for byte to encodeReduce's frame, for one-element, eager-sized
// and rendezvous-sized requests of both reduce types.
func TestSessionWritesEncodeReduce(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			close(accepted)
			return
		}
		accepted <- c
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	peer := <-accepted
	if peer == nil {
		t.Fatal("accept failed")
	}
	defer peer.Close()
	s := &Session{conn: conn, calls: map[uint64]chan callRes{}}
	for _, typ := range []byte{cfAllreduce, cfReduceFT} {
		for _, n := range []int{1, 4 * 16, 4 * 8192} {
			vals := make([]float64, n)
			for i := range vals {
				vals[i] = float64(i*7-n) / 3
			}
			vals[0] = math.Copysign(0, -1)
			if n > 1 {
				vals[1] = math.NaN()
			}
			call, err := s.start(typ, vals)
			if err != nil {
				t.Fatalf("type %#x, %d values: %v", typ, n, err)
			}
			want := encodeReduce(typ, call.id, vals)
			got := make([]byte, len(want))
			if _, err := io.ReadFull(peer, got); err != nil {
				t.Fatalf("type %#x, %d values: reading the request: %v", typ, n, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("type %#x, %d values: the session wrote a frame that differs from encodeReduce's at byte %d",
					typ, n, firstDiff(got, want))
			}
			releaseFrame(want)
		}
	}
}

// firstDiff returns the first index where a and b differ.
func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}
