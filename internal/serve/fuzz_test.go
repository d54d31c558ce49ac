package serve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"adapt/internal/comm"
)

// FuzzRequestFrame throws arbitrary byte streams at the framed request
// codec the way the session reader consumes them: through the shared
// frame decoder with the session's client-frame rules, then parse by
// type, going on past a frame that does not parse. The contract under attack: every malformation —
// truncated prefix, short body, duplicated or reordered fields, wild
// lengths — must surface as a typed *ProtoError or a plain io error,
// never a panic, a hang, or an unbounded allocation. Well-formed frames
// must round-trip through their encoders bit-exactly.
func FuzzRequestFrame(f *testing.F) {
	// Valid traffic, one of each kind.
	f.Add(encodeHello(helloMsg{Proto: protoVersion, World: 4, TagSpace: 7, ProxyRank: -1, Group: "g"}))
	f.Add(encodeHello(helloMsg{Proto: protoVersion, World: 2, ProxyRank: 1}))
	f.Add(encodeReduce(cfAllreduce, 3, []float64{1, 2, 3, 4}))
	f.Add(encodeReduce(cfReduceFT, 9, []float64{0.5, -0.5}))
	f.Add(encodeIsend(isendMsg{ID: 5, Dst: 1, Tag: 42, Size: 3, HasData: true, Data: []byte{1, 2, 3}}))
	f.Add(encodeIsend(isendMsg{ID: 6, Dst: 0, Tag: -1, Size: 4096}))
	f.Add(encodeIrecv(irecvMsg{ID: 7, Src: comm.AnySource, Tag: comm.AnyTag}))
	f.Add(encodeClose())
	// Back-to-back stream (a whole session's opening volley).
	f.Add(bytes.Join([][]byte{
		encodeHello(helloMsg{Proto: protoVersion, World: 2, ProxyRank: -1}),
		encodeReduce(cfAllreduce, 1, []float64{1, 2}),
		encodeClose(),
	}, nil))
	// Malformations: truncated prefix, truncated body, zero-length body,
	// oversized declared length, unknown type, trailing garbage.
	f.Add([]byte{3, 0, 0})
	f.Add([]byte{10, 0, 0, 0, byte(cfAllreduce), 1, 2})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{255, 255, 255, 255, 1})
	f.Add([]byte{1, 0, 0, 0, 0x77})
	f.Add(append(encodeClose(), 0xde, 0xad))

	f.Fuzz(func(t *testing.T, stream []byte) {
		err := decodeStream(&reqLog{each: func(typ byte, payload []byte, msg any) bool {
			reencodeRoundTrip(t, typ, payload, msg)
			// The same bytes must also never panic the server-frame
			// parsers (a hostile peer can impersonate either side).
			parseWelcome(payload)
			parseResult(payload)
			parseErr(payload)
			parseOpDone(payload)
			return true
		}, bad: typedParseError(t)}, bytes.NewReader(stream))
		checkStreamEnd(t, err)
	})
}

// FuzzServerFrame is FuzzRequestFrame for the other direction: the
// byte streams a client reader consumes. Every malformation must come
// back as a typed *ProtoError or a plain io error, never a panic, and
// every frame parseServerFrame accepts must re-encode to the identical
// bytes.
func FuzzServerFrame(f *testing.F) {
	f.Add(encodeWelcome(welcomeMsg{Session: 3, Gen: 1}))
	f.Add(encodeResult(resultMsg{ID: 7, Data: comm.EncodeFloat64s([]float64{1.5, -2.25, 1e9})}))
	f.Add(encodeResult(resultMsg{ID: 8, Mask: []bool{true, false, true}, Data: comm.EncodeFloat64s([]float64{4})}))
	f.Add(encodeErr(errMsg{ID: 9, Code: CodeOverloaded, Msg: "session in-flight cap reached"}))
	f.Add(encodeErr(errMsg{ID: 0, Code: CodeRankFailed}))
	f.Add(encodeOpDone(opDoneMsg{ID: 4, Source: 2, Tag: 42, Size: 3, HasData: true, Data: []byte{1, 2, 3}}))
	f.Add(encodeOpDone(opDoneMsg{ID: 5, Source: comm.AnySource, Tag: -1, Size: 4096}))
	f.Add(encodeBye())
	// A session's tail: results interleaved with an error, then Bye.
	f.Add(bytes.Join([][]byte{
		encodeResult(resultMsg{ID: 1, Data: comm.EncodeFloat64s([]float64{1, 2})}),
		encodeErr(errMsg{ID: 2, Code: CodeShutdown, Msg: "session draining"}),
		encodeBye(),
	}, nil))
	// Malformations: a result whose declared data length overruns the
	// body, a mask byte that is not 0/1, an out-of-range error code,
	// a Bye with a payload, an unknown type.
	f.Add([]byte{17, 0, 0, 0, sfResult, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 255, 0, 0, 0})
	f.Add([]byte{18, 0, 0, 0, sfResult, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 0})
	f.Add([]byte{12, 0, 0, 0, sfErr, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{2, 0, 0, 0, sfBye, 0})
	f.Add([]byte{1, 0, 0, 0, 0x99})

	f.Fuzz(func(t *testing.T, stream []byte) {
		err := decodeStream(&respLog{each: func(typ byte, payload []byte, msg any) bool {
			var frame []byte
			switch m := msg.(type) {
			case welcomeMsg:
				frame = encodeWelcome(m)
			case resultMsg:
				frame = encodeResult(m)
			case errMsg:
				frame = encodeErr(m)
			case opDoneMsg:
				frame = encodeOpDone(m)
			case byeMsg:
				frame = encodeBye()
			default:
				t.Fatalf("parseServerFrame returned unknown message type %T", msg)
			}
			if want := frameOf(typ, payload); !bytes.Equal(frame, want) {
				t.Fatalf("frame %#x does not round-trip: parsed %+v re-encodes to %d bytes, original %d",
					typ, msg, len(frame), len(want))
			}
			// A hostile peer can impersonate either side.
			decodeStream(&reqLog{each: func(byte, []byte, any) bool { return true }},
				bytes.NewReader(frameOf(typ, payload)))
			return true
		}, bad: typedParseError(t)}, bytes.NewReader(stream))
		checkStreamEnd(t, err)
	})
}

// typedParseError holds a frame that does not parse to the codec's
// contract, a typed *ProtoError; the stream goes on with the next frame.
func typedParseError(t *testing.T) func(error) {
	return func(err error) {
		t.Helper()
		var pe *ProtoError
		if !errors.As(err, &pe) {
			t.Fatalf("frame parse returned untyped error %T: %v", err, err)
		}
	}
}

// checkStreamEnd holds a decoded stream's end to the codec's contract:
// a clean or truncated end, or a typed *ProtoError.
func checkStreamEnd(t *testing.T, err error) {
	t.Helper()
	var pe *ProtoError
	if !errors.As(err, &pe) && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("decoder returned untyped error %T: %v", err, err)
	}
}

// reencodeRoundTrip asserts that a successfully parsed frame re-encodes
// to the identical wire bytes — the codec has one canonical form.
func reencodeRoundTrip(t *testing.T, typ byte, payload []byte, msg any) {
	t.Helper()
	var frame []byte
	switch m := msg.(type) {
	case helloMsg:
		frame = encodeHello(m)
	case reduceMsg:
		// The server keeps the values as raw bytes; decode them to
		// drive the client encoder.
		frame = encodeReduce(typ, m.ID, comm.DecodeFloat64s(m.Raw))
	case isendMsg:
		frame = encodeIsend(m)
	case irecvMsg:
		frame = encodeIrecv(m)
	case nil: // close
		frame = encodeClose()
	default:
		t.Fatalf("parseClientFrame returned unknown message type %T", msg)
	}
	if want := frameOf(typ, payload); !bytes.Equal(frame, want) {
		t.Fatalf("frame %#x does not round-trip: parsed %+v re-encodes to %d bytes, original %d",
			typ, msg, len(frame), len(want))
	}
}

// frameOf is the reference framing: length prefix, type, payload.
func frameOf(typ byte, payload []byte) []byte {
	f := binary.LittleEndian.AppendUint32(nil, uint32(1+len(payload)))
	f = append(f, typ)
	return append(f, payload...)
}
