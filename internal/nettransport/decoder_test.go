package nettransport

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"testing"
	"testing/iotest"

	"adapt/internal/comm"
	"adapt/internal/frame"
	"adapt/internal/perf"
	"adapt/internal/progress"
)

// frameLog is a peer connection whose finished frames are recorded
// instead of dispatched: the real frame rules (fixed-field lengths,
// validation, where each body lands) with a log in place of the
// matching engine. Pooled bodies go back to the pool once logged.
type frameLog struct {
	*connState
	dec *frame.Decoder
	got []string
}

// dataXid is the transfer whose data frame lands in a posted buffer.
const dataXid = 77

// newFrameLog builds a decoder for a connection from rank 1 to a bare
// endpoint holding one parked pull for dataXid, posted with a 64-byte
// buffer.
func newFrameLog() (*frameLog, *Comm) {
	c := newComm(0, 2, nil, defaultConfig())
	req := &progress.Req{Msg: comm.Msg{Data: make([]byte, 64)}}
	c.pulls[pullKey{src: 1, xid: dataXid}] = &rdvPull{req: req, tag: 5, size: 64, hasData: true}
	l := &frameLog{connState: newConnState(c, 1, nil)}
	l.dec = frame.NewDecoder("nettransport", maxFrameBody, l)
	return l, c
}

func (l *frameLog) Dispatch(typ byte, body []byte) error {
	cs := l.connState
	l.got = append(l.got, fmt.Sprintf("%d tag=%d xid=%d size=%d data=%v crc=%#x gid=%d k=%d m=%d idx=%d att=%d seq=%d posted=%v body=%x",
		typ, cs.tag, cs.xid, cs.msize, cs.hasData, cs.crc, cs.gid, cs.gk, cs.gm, cs.gidx, cs.gatt, cs.seq, cs.pull != nil, body))
	cs.pull = nil
	if cs.pooled && body != nil {
		comm.PutBuf(body)
	}
	if typ == frameBye {
		l.dec.Discard()
	}
	return nil
}

// wireFrames is one frame of every type a peer sends after the ident
// handshake, in a stream that ends with the Bye.
func wireFrames() [][]byte {
	eager := []byte("eager payload bytes")
	parity := append(appendFecMeta(nil, fecMeta{tag: 3, xid: 9, size: 4, plen: 4, hasData: true}), 1, 2, 3, 4)
	data := bytes.Repeat([]byte{0xab}, 40)
	return [][]byte{
		append(encodeEagerHdr(frameEager, 11, 1, len(eager), len(eager), true, crc32.ChecksumIEEE(eager)), eager...),
		encodeEagerHdr(frameRTS, 12, 2, 1<<20, 0, true, 0),
		encodeCTS(3),
		append(encodeDataHdr(dataXid, len(data)), data...),
		encodeCommit(4, []bool{true, false, true}),
		append(encodeFecParityHdr(5, 1, 2, 1, crc32.ChecksumIEEE(parity), len(parity)), parity...),
		encodeFecAck(6),
		encodeFecDead(7, 3, []fecMeta{{tag: 3, xid: 9, size: 4, plen: 4, hasData: true}}),
		encodeBye(),
	}
}

// TestDecoderSplits feeds a stream of every frame type through the
// shared decoder whole, in 1-byte reads and cut at every byte offset,
// and requires the same frames every time, the data frame landing in
// its posted buffer. Cut short at every offset, the stream must end in
// io.EOF exactly on frame boundaries and io.ErrUnexpectedEOF everywhere
// else, with every pooled body back in the pool and a posted buffer cut
// off mid-read handed back to the pull table.
func TestDecoderSplits(t *testing.T) {
	frames := wireFrames()
	stream := bytes.Join(frames, nil)
	boundary := map[int]bool{0: true}
	dataEnd, at := 0, 0
	for i, f := range frames {
		if i == 3 {
			dataEnd = at + len(f)
		}
		at += len(f)
		boundary[at] = true
	}
	p0 := perf.Read()
	l, _ := newFrameLog()
	if err := l.dec.Run(bytes.NewReader(stream)); err != nil || len(l.got) != len(frames) {
		t.Fatalf("whole stream decoded %d of %d frames, ending %v", len(l.got), len(frames), err)
	}
	want := l.got
	if !bytes.Contains([]byte(want[3]), []byte("posted=true")) {
		t.Fatalf("data frame did not land in its posted buffer: %s", want[3])
	}
	same := func(how string, r io.Reader) {
		l, _ := newFrameLog()
		if err := l.dec.Run(r); err != nil || fmt.Sprint(l.got) != fmt.Sprint(want) {
			t.Fatalf("%s: decoded %q ending %v, want %q", how, l.got, err, want)
		}
	}
	same("1-byte reads", iotest.OneByteReader(bytes.NewReader(stream)))
	for i := 1; i < len(stream); i++ {
		same(fmt.Sprintf("cut at %d", i), io.MultiReader(bytes.NewReader(stream[:i]), bytes.NewReader(stream[i:])))
		l, c := newFrameLog()
		err := l.dec.Run(bytes.NewReader(stream[:i]))
		wantErr := io.ErrUnexpectedEOF
		if boundary[i] {
			wantErr = io.EOF
		}
		if err != wantErr {
			t.Fatalf("stream cut short at %d ends %v, want %v", i, err, wantErr)
		}
		if parked := c.pulls[pullKey{src: 1, xid: dataXid}] != nil; parked != (i < dataEnd) {
			t.Fatalf("stream cut short at %d: posted pull parked %v", i, parked)
		}
	}
	if d := perf.Read().Delta(p0); d.BufGets != d.BufRecycled {
		t.Errorf("%d pool gets, %d returned: a decoded or aborted body was not released", d.BufGets, d.BufRecycled)
	}
}

// TestDecoderRejects: framing violations end the stream with an error
// and no body read.
func TestDecoderRejects(t *testing.T) {
	for _, c := range []struct {
		name   string
		stream []byte
	}{
		{"zero body", []byte{0, 0, 0, 0, frameBye}},
		{"body over the limit", frame.AppendHead(nil, frameEager, maxFrameBody)},
		{"unknown type", frame.AppendHead(nil, 0x77, 0)},
		{"short eager fixed part", append(frame.AppendHead(nil, frameEager, 10), make([]byte, 10)...)},
		{"ident after the handshake", append(frame.AppendHead(nil, frameIdent, 4), 1, 0, 0, 0)},
	} {
		l, _ := newFrameLog()
		err := l.dec.Run(bytes.NewReader(c.stream))
		if err == nil || errors.Is(err, io.EOF) || len(l.got) != 0 {
			t.Errorf("%s: ended %v after %d frames, want a protocol error", c.name, err, len(l.got))
		}
	}
}
