// Package frame is the framed-socket layer shared by the TCP substrate
// (internal/nettransport) and the serving daemon (internal/serve). On
// both wires every frame is a 4-byte little-endian length, counting
// everything after it, then one type byte and a typed body. A protocol
// keeps only its frame types' codec: it plugs a Handler into the one
// resumable Decoder here and queues its encoded frames on the one
// batched Writer.
package frame

import (
	"encoding/binary"
	"fmt"
	"io"
)

// HeadLen is a frame's head: the length prefix and the type byte.
const HeadLen = 5

// PutHead writes into h the head of a frame of type typ whose body,
// everything after the type byte, is n bytes.
func PutHead(h []byte, typ byte, n int) {
	binary.LittleEndian.PutUint32(h, uint32(n+1))
	h[4] = typ
}

// AppendHead appends the head of a frame of type typ with an n-byte body.
func AppendHead(dst []byte, typ byte, n int) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(n+1))
	return append(dst, typ)
}

// Error is a framing violation read from a stream: a length out of
// range, an unknown type, a malformed or out-of-range field.
type Error struct {
	Proto  string // the protocol whose stream broke the rule
	Reason string
}

func (e *Error) Error() string { return e.Proto + ": protocol error: " + e.Reason }

// Handler is one protocol's frame-type codec, called by a Decoder in
// stream order. Every frame goes Fixed, then Body, then Dispatch; a
// frame cut off after Body returned goes to Abort instead of Dispatch.
// An error from any of them ends the stream.
type Handler interface {
	// Fixed validates the type of a frame whose body (everything after
	// the type byte) is n bytes, and returns the byte count of the
	// type's fixed fields, at most n.
	Fixed(typ byte, n int) (int, error)
	// Body decodes the fixed fields and returns the buffer the rest of
	// the body, n bytes, is read into: a pooled buffer, a posted receive
	// buffer or a plain slice, of length exactly n (nil when n is 0).
	Body(typ byte, fixed []byte, n int) ([]byte, error)
	// Dispatch hands over a finished frame with the buffer Body
	// returned, now full; ownership of the buffer goes with it.
	Dispatch(typ byte, body []byte) error
	// Abort takes back the buffer of a frame the stream ended inside.
	Abort(body []byte)
}

// Decoder stages.
const (
	stageHead = iota
	stageFixed
	stageBody
)

// stagingLen is the staging buffer every Decoder reads heads, fixed
// fields and small bodies through; it is far larger than any head plus
// fixed part, so a compacted buffer always has room for the next read.
const stagingLen = 64 << 10

// Decoder is one connection's resumable frame decoder. A driver asks
// Next where its next read should land, reads, and reports the count to
// Feed, which dispatches every frame the bytes complete. Heads and fixed
// fields are parsed from a staging buffer; once a frame's body buffer is
// known, the staged bytes are copied into it once and every further
// read of that body lands in it directly. Two drivers run it: Run, a
// blocking read loop, and nettransport's epoll loop. A Decoder is used
// by one goroutine at a time.
type Decoder struct {
	h     Handler
	proto string
	max   int

	buf  []byte // staging buffer; unparsed bytes live in buf[r:w]
	r, w int

	stage   int
	typ     byte
	n       int    // body bytes after the type byte
	fixed   int    // the type's fixed-field byte count
	body    []byte // where the rest of the body goes
	got     int    // body bytes read so far
	discard bool   // Discard was called: drop every byte until the end
}

// NewDecoder returns a decoder for protocol proto (named in its errors)
// whose frame bodies, type byte included, are at most max bytes.
func NewDecoder(proto string, max int, h Handler) *Decoder {
	return &Decoder{h: h, proto: proto, max: max, buf: make([]byte, stagingLen)}
}

// direct reports whether the next read lands straight in the body: the
// staged bytes are used up and the body is not yet complete.
func (d *Decoder) direct() bool { return d.stage == stageBody && d.r == d.w }

// Next returns the buffer the next read should fill.
func (d *Decoder) Next() []byte {
	switch {
	case d.discard:
		return d.buf
	case d.direct():
		return d.body[d.got:]
	}
	if d.r > 0 {
		copy(d.buf, d.buf[d.r:d.w])
		d.w -= d.r
		d.r = 0
	}
	return d.buf[d.w:]
}

// Feed accounts n bytes read into the buffer Next returned and
// dispatches every frame they complete. An error is a protocol
// violation or a handler's refusal; the stream must end (Stop).
func (d *Decoder) Feed(n int) error {
	switch {
	case d.discard:
		return nil
	case d.direct():
		d.got += n
		if d.got < len(d.body) {
			return nil
		}
		return d.finish()
	}
	d.w += n
	for !d.discard {
		switch d.stage {
		case stageHead:
			if d.w-d.r < HeadLen {
				return nil
			}
			n := int(binary.LittleEndian.Uint32(d.buf[d.r:]))
			if n < 1 || n > d.max {
				return &Error{Proto: d.proto,
					Reason: fmt.Sprintf("frame body %d bytes out of range [1, %d]", n, d.max)}
			}
			d.typ = d.buf[d.r+4]
			d.r += HeadLen
			d.n = n - 1
			fixed, err := d.h.Fixed(d.typ, d.n)
			if err != nil {
				return err
			}
			d.fixed = fixed
			d.stage = stageFixed
		case stageFixed:
			if d.w-d.r < d.fixed {
				return nil
			}
			fix := d.buf[d.r : d.r+d.fixed]
			d.r += d.fixed
			body, err := d.h.Body(d.typ, fix, d.n-d.fixed)
			if err != nil {
				return err
			}
			d.body, d.got = body, 0
			d.stage = stageBody
		default:
			m := copy(d.body[d.got:], d.buf[d.r:d.w])
			d.r += m
			d.got += m
			if d.got < len(d.body) {
				return nil
			}
			if err := d.finish(); err != nil {
				return err
			}
		}
	}
	return nil
}

// finish resets the decoder for the next frame and dispatches this one.
func (d *Decoder) finish() error {
	body := d.body
	d.body, d.got = nil, 0
	d.stage = stageHead
	return d.h.Dispatch(d.typ, body)
}

// Discard drops every byte that follows the frame being dispatched: the
// stream ends cleanly whatever ends it. A protocol's goodbye frame calls
// it from Dispatch.
func (d *Decoder) Discard() {
	d.discard = true
	d.r, d.w = 0, 0
}

// Stop ends the stream after a read failed with err (io.EOF for an
// orderly end) or Feed returned err. A frame cut off inside its body
// goes back to the handler's Abort. It returns the stream's outcome:
// nil after Discard, io.ErrUnexpectedEOF for an io.EOF inside a frame,
// err otherwise (io.EOF on a frame boundary).
func (d *Decoder) Stop(err error) error {
	mid := d.stage != stageHead || d.r < d.w
	if d.stage == stageBody {
		d.h.Abort(d.body)
	}
	d.body, d.got = nil, 0
	d.stage = stageHead
	d.r, d.w = 0, 0
	switch {
	case d.discard:
		return nil
	case err == io.EOF && mid:
		return io.ErrUnexpectedEOF
	}
	return err
}

// Run is the blocking driver: it reads r into the decoder until the
// stream ends, and returns Stop's outcome.
func (d *Decoder) Run(r io.Reader) error {
	for {
		n, err := r.Read(d.Next())
		if n > 0 {
			if ferr := d.Feed(n); ferr != nil {
				return d.Stop(ferr)
			}
		}
		if err != nil {
			return d.Stop(err)
		}
	}
}
