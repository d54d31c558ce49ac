package serve

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"testing"
	"testing/iotest"
	"time"
	"unsafe"

	"adapt/internal/comm"
	"adapt/internal/frame"
	"adapt/internal/perf"
	"adapt/internal/progress"
)

// errEnough ends a logged stream once the test has what it wants.
var errEnough = errors.New("enough frames")

// reqLog decodes client frames with the session's rules (reqDec) and
// passes each finished frame to each with its whole payload, fixed part
// included, and its typed message, before recycling its body. A frame
// that does not parse ends the stream with its *ProtoError, unless bad
// is set: then bad hears the error and the stream goes on with the next
// frame. A false from each ends the stream with errEnough.
type reqLog struct {
	reqDec
	fix     []byte
	each    func(typ byte, payload []byte, msg any) bool
	bad     func(err error)
	badBody error // bad is set: why the frame being read does not parse
}

func (h *reqLog) Fixed(typ byte, n int) (int, error) {
	h.badBody = nil
	fixed, err := h.reqDec.Fixed(typ, n)
	if err != nil && h.bad != nil {
		h.badBody = err
		return 0, nil
	}
	return fixed, err
}

func (h *reqLog) Body(typ byte, fix []byte, n int) ([]byte, error) {
	h.fix = append(h.fix[:0], fix...)
	if h.badBody != nil {
		return comm.GetBuf(n), nil
	}
	body, err := h.reqDec.Body(typ, fix, n)
	if err != nil && h.bad != nil {
		h.badBody = err
		return comm.GetBuf(n), nil
	}
	return body, err
}

func (h *reqLog) Dispatch(typ byte, body []byte) error {
	defer releaseFrame(body)
	err := h.badBody
	var msg any
	if err == nil {
		msg, err = h.msg(typ, body)
	}
	if err != nil {
		if h.bad != nil {
			h.bad(err)
			return nil
		}
		return err
	}
	if !h.each(typ, append(h.fix, body...), msg) {
		return errEnough
	}
	return nil
}

// respLog is reqLog for server frames, with the client's rules
// (respDec).
type respLog struct {
	respDec
	each func(typ byte, payload []byte, msg any) bool
	bad  func(err error)
}

func (h *respLog) Dispatch(typ byte, body []byte) error {
	defer releaseFrame(body)
	msg, err := parseServerFrame(typ, body)
	if err != nil {
		if h.bad != nil {
			h.bad(err)
			return nil
		}
		return err
	}
	if !h.each(typ, body, msg) {
		return errEnough
	}
	return nil
}

// decodeStream runs r through a serve decoder with handler h.
func decodeStream(h frame.Handler, r io.Reader) error {
	return frame.NewDecoder("serve", maxFrameBody, h).Run(r)
}

// readServerFrames decodes n server frames from r.
func readServerFrames(t *testing.T, r io.Reader, n int) (typs []byte, msgs []any) {
	t.Helper()
	err := decodeStream(&respLog{each: func(typ byte, _ []byte, msg any) bool {
		typs, msgs = append(typs, typ), append(msgs, msg)
		return len(msgs) < n
	}}, r)
	if !errors.Is(err, errEnough) && !(errors.Is(err, io.EOF) && len(msgs) == n) {
		t.Fatalf("decoding %d server frames: %v after %d", n, err, len(msgs))
	}
	return typs, msgs
}

// splitStreams is one of each client and server frame type, each set
// run together as a session would send it.
func splitStreams() (client, server [][]byte) {
	client = [][]byte{
		encodeHello(helloMsg{Proto: protoVersion, World: 4, TagSpace: 7, ProxyRank: -1, Group: "g"}),
		encodeReduce(cfAllreduce, 3, []float64{1, 2, 3, 4, 5, 6, 7, 8}),
		encodeReduce(cfReduceFT, 9, []float64{0.5, -0.5}),
		encodeIsend(isendMsg{ID: 5, Dst: 1, Tag: 42, Size: 3, HasData: true, Data: []byte{1, 2, 3}}),
		encodeIsend(isendMsg{ID: 6, Dst: 0, Tag: -1, Size: 4096}),
		encodeIrecv(irecvMsg{ID: 7, Src: comm.AnySource, Tag: comm.AnyTag}),
		encodeClose(),
	}
	server = [][]byte{
		encodeWelcome(welcomeMsg{Session: 3, Gen: 1}),
		encodeResult(resultMsg{ID: 7, Data: comm.EncodeFloat64s([]float64{1.5, -2.25, 1e9})}),
		encodeResult(resultMsg{ID: 8, Mask: []bool{true, false, true}, Data: comm.EncodeFloat64s([]float64{4})}),
		encodeErr(errMsg{ID: 9, Code: CodeOverloaded, Msg: "session in-flight cap reached"}),
		encodeOpDone(opDoneMsg{ID: 4, Source: 2, Tag: 42, Size: 3, HasData: true, Data: []byte{1, 2, 3}}),
		encodeOpDone(opDoneMsg{ID: 5, Source: comm.AnySource, Tag: -1, Size: 4096}),
		encodeBye(),
	}
	return client, server
}

// TestDecoderSplitsServe feeds both directions' frame streams through
// the shared decoder whole, in 1-byte reads and cut at every byte
// offset, and requires the same dispatched frames every time. Cut
// short at every offset, a stream must end in io.EOF exactly on frame
// boundaries and io.ErrUnexpectedEOF everywhere else, with every
// pooled body back in the pool.
func TestDecoderSplitsServe(t *testing.T) {
	client, server := splitStreams()
	for _, dir := range []struct {
		name   string
		frames [][]byte
		log    func(each func(byte, []byte, any) bool) frame.Handler
	}{
		{"client", client, func(each func(byte, []byte, any) bool) frame.Handler { return &reqLog{each: each} }},
		{"server", server, func(each func(byte, []byte, any) bool) frame.Handler { return &respLog{each: each} }},
	} {
		stream := bytes.Join(dir.frames, nil)
		boundary := map[int]bool{0: true}
		at := 0
		for _, f := range dir.frames {
			at += len(f)
			boundary[at] = true
		}
		decode := func(r io.Reader) ([]string, error) {
			var got []string
			err := decodeStream(dir.log(func(typ byte, payload []byte, msg any) bool {
				got = append(got, fmt.Sprintf("%#x %x %+v", typ, payload, msg))
				return true
			}), r)
			return got, err
		}
		p0 := perf.Read()
		want, err := decode(bytes.NewReader(stream))
		if err != io.EOF || len(want) != len(dir.frames) {
			t.Fatalf("%s: whole stream decoded %d of %d frames, ending %v", dir.name, len(want), len(dir.frames), err)
		}
		same := func(how string, r io.Reader) {
			got, err := decode(r)
			if err != io.EOF || fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s, %s: decoded %q ending %v, want %q", dir.name, how, got, err, want)
			}
		}
		same("1-byte reads", iotest.OneByteReader(bytes.NewReader(stream)))
		for i := 1; i < len(stream); i++ {
			same(fmt.Sprintf("cut at %d", i), io.MultiReader(bytes.NewReader(stream[:i]), bytes.NewReader(stream[i:])))
			wantErr := io.ErrUnexpectedEOF
			if boundary[i] {
				wantErr = io.EOF
			}
			if _, err := decode(bytes.NewReader(stream[:i])); err != wantErr {
				t.Fatalf("%s: stream cut short at %d ends %v, want %v", dir.name, i, err, wantErr)
			}
		}
		if d := perf.Read().Delta(p0); d.BufGets != d.BufRecycled {
			t.Errorf("%s: %d pool gets, %d returned: a decoded or aborted body was not released", dir.name, d.BufGets, d.BufRecycled)
		}
	}
}

// TestDecoderRejectsServe: framing violations end the stream with a
// typed *ProtoError before any body is read.
func TestDecoderRejectsServe(t *testing.T) {
	for _, c := range []struct {
		name   string
		stream []byte
	}{
		{"zero body", []byte{0, 0, 0, 0, cfHello}},
		{"body over the limit", frame.AppendHead(nil, cfHello, maxFrameBody)},
		{"unknown type", frame.AppendHead(nil, 0x77, 0)},
		{"short reduce fixed part", append(frame.AppendHead(nil, cfAllreduce, 11), make([]byte, 11)...)},
		{"short isend fixed part", append(frame.AppendHead(nil, cfIsend, 24), make([]byte, 24)...)},
		{"reduce count off its body", frameOf(cfAllreduce, []byte{1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8})},
	} {
		err := decodeStream(&reqLog{each: func(byte, []byte, any) bool { return true }}, bytes.NewReader(c.stream))
		var pe *ProtoError
		if !errors.As(err, &pe) {
			t.Errorf("%s: got %v, want a *ProtoError", c.name, err)
		}
	}
}

// TestReduceValuesAligned: an unfused served request's contribution
// bytes start 8-byte aligned. The request id and count are the frame's
// fixed part, so the values land at offset 0 of their own pooled
// buffer, which submitFused slices into the ranks' contributions. The
// backend has no executors, so the job stays queued where the test can
// look at it.
func TestReduceValuesAligned(t *testing.T) {
	srv := newTestServer(t, Config{DrainTimeout: 2 * time.Second})
	const n, elems = 4, 3
	b := &backend{srv: srv, n: n, admit: make(chan struct{}, 1), dead: make([]bool, n)}
	b.fuse = newFuser(b, 0, 1)
	for r := 0; r < n; r++ {
		b.jobCh = append(b.jobCh, make(chan *job, 1))
		b.scheds = append(b.scheds, progress.NewScheduler())
	}
	conn, peer := net.Pipe()
	defer peer.Close()
	sess := newSession(srv, 1, conn)
	defer func() { sess.w.Close(); sess.w.Wait(); conn.Close() }()
	sess.be = b
	req := encodeReduce(cfAllreduce, 1, make([]float64, n*elems))
	if err := decodeStream(sess, bytes.NewReader(req)); err != io.EOF {
		t.Fatalf("decoding the request: %v", err)
	}
	j := <-b.jobCh[0]
	for r, in := range j.in {
		if p := uintptr(unsafe.Pointer(&in[0])); p%8 != 0 {
			t.Errorf("rank %d contribution starts at %#x, not 8-byte aligned", r, p)
		}
	}
}
