package serve

import (
	"encoding/binary"
	"fmt"
	"io"

	"adapt/internal/comm"
)

// Wire format: every frame is a 4-byte little-endian body length
// followed by the body; body byte 0 is the frame type, the rest is the
// typed payload. The codec is a set of pure encode/parse functions so
// the fuzz harness can drive the exact bytes a hostile or truncated
// client could send — every malformation must come back as a typed
// *ProtoError, never a panic or a hang.
const (
	// Client → server.
	cfHello     byte = 0x01
	cfAllreduce byte = 0x02
	cfReduceFT  byte = 0x03
	cfIsend     byte = 0x04
	cfIrecv     byte = 0x05
	cfClose     byte = 0x06

	// Server → client.
	sfWelcome byte = 0x81
	sfResult  byte = 0x82
	sfErr     byte = 0x83
	sfOpDone  byte = 0x84
	sfBye     byte = 0x85
)

const (
	protoVersion = 1
	// maxFrameBody bounds one frame body (type byte + payload): 64 MiB.
	maxFrameBody = 1 << 26
	// maxWireWorld bounds the world size a frame may claim, independent
	// of the server's configured cap.
	maxWireWorld = 1 << 16
)

// ProtoError is a typed wire-protocol violation: bad framing, a
// truncated payload, an unknown type, an out-of-range field.
type ProtoError struct {
	Reason string
}

func (e *ProtoError) Error() string { return "serve: protocol error: " + e.Reason }

func protoErrf(format string, args ...any) error {
	return &ProtoError{Reason: fmt.Sprintf(format, args...)}
}

// readFrame reads one frame. Transport failures come back as the raw
// io error (io.EOF on a clean end-of-stream between frames); framing
// violations come back as *ProtoError.
//
// The payload is drawn from the comm.GetBuf pool and belongs to the
// caller, who hands it back with releaseFrame once nothing aliases it
// any more (a zero-length payload is nil).
func readFrame(r io.Reader) (typ byte, payload []byte, err error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:4]); err != nil {
		return 0, nil, err
	}
	n := int(binary.LittleEndian.Uint32(hdr[:4]))
	if n < 1 {
		return 0, nil, protoErrf("frame body %d bytes, want >= 1", n)
	}
	if n > maxFrameBody {
		return 0, nil, protoErrf("frame body %d bytes exceeds limit %d", n, maxFrameBody)
	}
	if _, err := io.ReadFull(r, hdr[4:]); err != nil {
		return 0, nil, unexpectedEOF(err)
	}
	payload = comm.GetBuf(n - 1)
	if _, err := io.ReadFull(r, payload); err != nil {
		releaseFrame(payload)
		return 0, nil, unexpectedEOF(err)
	}
	return hdr[4], payload, nil
}

func unexpectedEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// releaseFrame returns a pooled frame or payload buffer; nil (an empty
// payload) is a no-op.
func releaseFrame(b []byte) {
	if len(b) > 0 {
		comm.PutBuf(b)
	}
}

// newFrame starts a pooled frame for a payload of exactly n bytes: the
// length prefix and type are written, and the returned slice has
// length 5 and capacity for the payload, so encoders append in place
// without reallocating. Whoever writes the frame to the socket owns it
// and recycles it with releaseFrame.
func newFrame(typ byte, n int) []byte {
	f := comm.GetBuf(5 + n)[:5]
	binary.LittleEndian.PutUint32(f, uint32(1+n))
	f[4] = typ
	return f
}

type helloMsg struct {
	Proto     uint32
	World     int
	TagSpace  uint32
	ProxyRank int // -1 for service sessions
	Group     string
}

func encodeHello(m helloMsg) []byte {
	p := newFrame(cfHello, 17+len(m.Group))
	p = binary.LittleEndian.AppendUint32(p, m.Proto)
	p = binary.LittleEndian.AppendUint32(p, uint32(m.World))
	p = binary.LittleEndian.AppendUint32(p, m.TagSpace)
	p = binary.LittleEndian.AppendUint32(p, uint32(int32(m.ProxyRank)))
	p = append(p, byte(len(m.Group)))
	return append(p, m.Group...)
}

func parseHello(p []byte) (helloMsg, error) {
	if len(p) < 17 {
		return helloMsg{}, protoErrf("hello body %d bytes, want >= 17", len(p))
	}
	m := helloMsg{
		Proto:     binary.LittleEndian.Uint32(p[0:4]),
		World:     int(binary.LittleEndian.Uint32(p[4:8])),
		TagSpace:  binary.LittleEndian.Uint32(p[8:12]),
		ProxyRank: int(int32(binary.LittleEndian.Uint32(p[12:16]))),
	}
	gl := int(p[16])
	if len(p) != 17+gl {
		return helloMsg{}, protoErrf("hello group length %d does not fit body %d", gl, len(p))
	}
	m.Group = string(p[17 : 17+gl])
	if m.Proto != protoVersion {
		return helloMsg{}, protoErrf("protocol version %d, want %d", m.Proto, protoVersion)
	}
	if m.World < 1 || m.World > maxWireWorld {
		return helloMsg{}, protoErrf("world size %d out of range", m.World)
	}
	if m.ProxyRank < -1 || m.ProxyRank >= m.World {
		return helloMsg{}, protoErrf("proxy rank %d out of range for world %d", m.ProxyRank, m.World)
	}
	return m, nil
}

// reduceMsg is a parsed reduce request. Raw aliases the frame payload:
// the world*elems contributions as little-endian float64 bytes,
// rank-major, never decoded on the server.
type reduceMsg struct {
	ID  uint64
	Raw []byte
}

// reduceHeadLen is a reduce request's bytes before its values: length
// prefix, type, request id and element count.
const reduceHeadLen = 17

// putReduceHead writes a reduce request's head for n values into h.
func putReduceHead(h []byte, typ byte, id uint64, n int) {
	binary.LittleEndian.PutUint32(h, uint32(13+8*n))
	h[4] = typ
	binary.LittleEndian.PutUint64(h[5:], id)
	binary.LittleEndian.PutUint32(h[13:], uint32(n))
}

// encodeReduce builds a whole reduce request frame in a pooled buffer:
// the head, then vals as little-endian float64s. A little-endian client
// writes the same bytes without it (Session.start).
func encodeReduce(typ byte, id uint64, vals []float64) []byte {
	f := comm.GetBuf(reduceHeadLen + 8*len(vals))
	putReduceHead(f, typ, id, len(vals))
	comm.PutFloat64s(f[reduceHeadLen:], vals)
	return f
}

func parseReduce(p []byte) (reduceMsg, error) {
	if len(p) < 12 {
		return reduceMsg{}, protoErrf("reduce body %d bytes, want >= 12", len(p))
	}
	m := reduceMsg{ID: binary.LittleEndian.Uint64(p[0:8])}
	count := int(binary.LittleEndian.Uint32(p[8:12]))
	if count < 1 || count > (maxFrameBody-13)/8 {
		return reduceMsg{}, protoErrf("reduce element count %d out of range", count)
	}
	if len(p) != 12+8*count {
		return reduceMsg{}, protoErrf("reduce payload %d bytes for %d elements", len(p)-12, count)
	}
	m.Raw = p[12:]
	return m, nil
}

type isendMsg struct {
	ID      uint64
	Dst     int
	Tag     comm.Tag
	Size    int
	HasData bool
	Data    []byte
}

func encodeIsend(m isendMsg) []byte {
	n := 25
	if m.HasData {
		n += len(m.Data)
	}
	p := newFrame(cfIsend, n)
	p = binary.LittleEndian.AppendUint64(p, m.ID)
	p = binary.LittleEndian.AppendUint32(p, uint32(int32(m.Dst)))
	p = binary.LittleEndian.AppendUint64(p, uint64(m.Tag))
	p = binary.LittleEndian.AppendUint32(p, uint32(m.Size))
	if m.HasData {
		p = append(p, 1)
		return append(p, m.Data...)
	}
	return append(p, 0)
}

func parseIsend(p []byte) (isendMsg, error) {
	if len(p) < 25 {
		return isendMsg{}, protoErrf("isend body %d bytes, want >= 25", len(p))
	}
	m := isendMsg{
		ID:   binary.LittleEndian.Uint64(p[0:8]),
		Dst:  int(int32(binary.LittleEndian.Uint32(p[8:12]))),
		Tag:  comm.Tag(binary.LittleEndian.Uint64(p[12:20])),
		Size: int(binary.LittleEndian.Uint32(p[20:24])),
	}
	switch p[24] {
	case 0:
		if len(p) != 25 {
			return isendMsg{}, protoErrf("payload-elided isend carries %d extra bytes", len(p)-25)
		}
	case 1:
		m.HasData = true
		if len(p) != 25+m.Size {
			return isendMsg{}, protoErrf("isend data %d bytes, declared size %d", len(p)-25, m.Size)
		}
		m.Data = p[25:]
	default:
		return isendMsg{}, protoErrf("isend hasData flag %d", p[24])
	}
	if m.Size < 0 || m.Size > maxFrameBody {
		return isendMsg{}, protoErrf("isend size %d out of range", m.Size)
	}
	if m.Dst < 0 || m.Dst >= maxWireWorld {
		return isendMsg{}, protoErrf("isend destination %d out of range", m.Dst)
	}
	return m, nil
}

type irecvMsg struct {
	ID  uint64
	Src int
	Tag comm.Tag
}

func encodeIrecv(m irecvMsg) []byte {
	p := newFrame(cfIrecv, 20)
	p = binary.LittleEndian.AppendUint64(p, m.ID)
	p = binary.LittleEndian.AppendUint32(p, uint32(int32(m.Src)))
	return binary.LittleEndian.AppendUint64(p, uint64(m.Tag))
}

func parseIrecv(p []byte) (irecvMsg, error) {
	if len(p) != 20 {
		return irecvMsg{}, protoErrf("irecv body %d bytes, want 20", len(p))
	}
	m := irecvMsg{
		ID:  binary.LittleEndian.Uint64(p[0:8]),
		Src: int(int32(binary.LittleEndian.Uint32(p[8:12]))),
		Tag: comm.Tag(binary.LittleEndian.Uint64(p[12:20])),
	}
	if m.Src != comm.AnySource && (m.Src < 0 || m.Src >= maxWireWorld) {
		return irecvMsg{}, protoErrf("irecv source %d out of range", m.Src)
	}
	return m, nil
}

type welcomeMsg struct {
	Session uint64
	Gen     uint64
}

func encodeWelcome(m welcomeMsg) []byte {
	p := newFrame(sfWelcome, 16)
	p = binary.LittleEndian.AppendUint64(p, m.Session)
	return binary.LittleEndian.AppendUint64(p, m.Gen)
}

func parseWelcome(p []byte) (welcomeMsg, error) {
	if len(p) != 16 {
		return welcomeMsg{}, protoErrf("welcome body %d bytes, want 16", len(p))
	}
	return welcomeMsg{
		Session: binary.LittleEndian.Uint64(p[0:8]),
		Gen:     binary.LittleEndian.Uint64(p[8:16]),
	}, nil
}

type resultMsg struct {
	ID   uint64
	Mask []bool // survivor mask, nil for non-FT results
	Data []byte // raw little-endian float64 payload
}

// encodeResultHead builds a result frame up to its payload in a pooled
// buffer; the frame's length prefix counts m.Data, which the writer
// sends straight after it from where it lies.
func encodeResultHead(m resultMsg) []byte {
	// The mask length is a uint32: survivor masks are world-sized and
	// worlds may be as large as maxWireWorld, which outgrows a byte.
	p := newFrame(sfResult, 16+len(m.Mask))
	binary.LittleEndian.PutUint32(p, uint32(17+len(m.Mask)+len(m.Data)))
	p = binary.LittleEndian.AppendUint64(p, m.ID)
	p = binary.LittleEndian.AppendUint32(p, uint32(len(m.Mask)))
	for _, alive := range m.Mask {
		if alive {
			p = append(p, 1)
		} else {
			p = append(p, 0)
		}
	}
	return binary.LittleEndian.AppendUint32(p, uint32(len(m.Data)))
}

func parseResult(p []byte) (resultMsg, error) {
	if len(p) < 16 {
		return resultMsg{}, protoErrf("result body %d bytes, want >= 16", len(p))
	}
	m := resultMsg{ID: binary.LittleEndian.Uint64(p[0:8])}
	ml := int(binary.LittleEndian.Uint32(p[8:12]))
	if ml > maxWireWorld {
		return resultMsg{}, protoErrf("result mask %d entries exceeds world cap %d", ml, maxWireWorld)
	}
	if len(p) < 16+ml {
		return resultMsg{}, protoErrf("result mask %d bytes does not fit body %d", ml, len(p))
	}
	if ml > 0 {
		m.Mask = make([]bool, ml)
		for i := 0; i < ml; i++ {
			switch p[12+i] {
			case 0:
			case 1:
				m.Mask[i] = true
			default:
				return resultMsg{}, protoErrf("result mask entry %d is %d, want 0 or 1", i, p[12+i])
			}
		}
	}
	dl := int(binary.LittleEndian.Uint32(p[12+ml : 16+ml]))
	if dl%8 != 0 || len(p) != 16+ml+dl {
		return resultMsg{}, protoErrf("result payload %d bytes for declared %d", len(p)-16-ml, dl)
	}
	m.Data = p[16+ml:]
	return m, nil
}

type errMsg struct {
	ID   uint64
	Code Code
	Msg  string
}

// maxErrMsg bounds an error frame's message; longer ones are cut.
const maxErrMsg = 1024

func encodeErr(m errMsg) []byte {
	if len(m.Msg) > maxErrMsg {
		m.Msg = m.Msg[:maxErrMsg]
	}
	p := newFrame(sfErr, 11+len(m.Msg))
	p = binary.LittleEndian.AppendUint64(p, m.ID)
	p = append(p, byte(m.Code))
	p = binary.LittleEndian.AppendUint16(p, uint16(len(m.Msg)))
	return append(p, m.Msg...)
}

func parseErr(p []byte) (errMsg, error) {
	if len(p) < 11 {
		return errMsg{}, protoErrf("err body %d bytes, want >= 11", len(p))
	}
	m := errMsg{ID: binary.LittleEndian.Uint64(p[0:8]), Code: Code(p[8])}
	ml := int(binary.LittleEndian.Uint16(p[9:11]))
	if len(p) != 11+ml {
		return errMsg{}, protoErrf("err message %d bytes, declared %d", len(p)-11, ml)
	}
	if ml > maxErrMsg {
		return errMsg{}, protoErrf("err message %d bytes exceeds limit %d", ml, maxErrMsg)
	}
	m.Msg = string(p[11:])
	if m.Code == CodeOK || m.Code > CodeInternal {
		return errMsg{}, protoErrf("err code %d out of range", m.Code)
	}
	return m, nil
}

type opDoneMsg struct {
	ID      uint64
	Source  int
	Tag     comm.Tag
	Size    int
	HasData bool
	Data    []byte
}

func encodeOpDone(m opDoneMsg) []byte {
	n := 25
	if m.HasData {
		n += len(m.Data)
	}
	p := newFrame(sfOpDone, n)
	p = binary.LittleEndian.AppendUint64(p, m.ID)
	p = binary.LittleEndian.AppendUint32(p, uint32(int32(m.Source)))
	p = binary.LittleEndian.AppendUint64(p, uint64(m.Tag))
	p = binary.LittleEndian.AppendUint32(p, uint32(m.Size))
	if m.HasData {
		p = append(p, 1)
		return append(p, m.Data...)
	}
	return append(p, 0)
}

func parseOpDone(p []byte) (opDoneMsg, error) {
	if len(p) < 25 {
		return opDoneMsg{}, protoErrf("opdone body %d bytes, want >= 25", len(p))
	}
	m := opDoneMsg{
		ID:     binary.LittleEndian.Uint64(p[0:8]),
		Source: int(int32(binary.LittleEndian.Uint32(p[8:12]))),
		Tag:    comm.Tag(binary.LittleEndian.Uint64(p[12:20])),
		Size:   int(binary.LittleEndian.Uint32(p[20:24])),
	}
	switch p[24] {
	case 0:
		if len(p) != 25 {
			return opDoneMsg{}, protoErrf("payload-elided opdone carries %d extra bytes", len(p)-25)
		}
	case 1:
		m.HasData = true
		if len(p) != 25+m.Size {
			return opDoneMsg{}, protoErrf("opdone data %d bytes, declared size %d", len(p)-25, m.Size)
		}
		m.Data = p[25:]
	default:
		return opDoneMsg{}, protoErrf("opdone hasData flag %d", p[24])
	}
	return m, nil
}

func encodeClose() []byte { return newFrame(cfClose, 0) }

// byeMsg is the server's drain-complete handshake; it carries nothing.
type byeMsg struct{}

func encodeBye() []byte { return newFrame(sfBye, 0) }

// parseClientFrame decodes any client-side frame into its typed message
// — the single entry point the server reader and the fuzz harness
// share. Unknown types and malformed payloads are *ProtoError.
func parseClientFrame(typ byte, payload []byte) (any, error) {
	switch typ {
	case cfHello:
		return parseHello(payload)
	case cfAllreduce, cfReduceFT:
		return parseReduce(payload)
	case cfIsend:
		return parseIsend(payload)
	case cfIrecv:
		return parseIrecv(payload)
	case cfClose:
		if len(payload) != 0 {
			return nil, protoErrf("close frame carries %d bytes", len(payload))
		}
		return nil, nil
	default:
		return nil, protoErrf("unknown client frame type %#x", typ)
	}
}

// parseServerFrame decodes any server-side frame into its typed message
// — the single entry point the client reader and the fuzz harness
// share. Unknown types and malformed payloads are *ProtoError.
func parseServerFrame(typ byte, payload []byte) (any, error) {
	switch typ {
	case sfWelcome:
		return parseWelcome(payload)
	case sfResult:
		return parseResult(payload)
	case sfErr:
		return parseErr(payload)
	case sfOpDone:
		return parseOpDone(payload)
	case sfBye:
		if len(payload) != 0 {
			return nil, protoErrf("bye frame carries %d bytes", len(payload))
		}
		return byeMsg{}, nil
	default:
		return nil, protoErrf("unknown server frame type %#x", typ)
	}
}
