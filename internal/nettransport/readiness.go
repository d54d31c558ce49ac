package nettransport

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"net"

	"adapt/internal/comm"
	"adapt/internal/perf"
	"adapt/internal/progress"
)

// Readiness-driven frame decoding. Instead of a blocking reader
// goroutine per peer, every connection carries an incremental decoder
// (connState) that a single I/O loop feeds whenever the socket is
// readable — epoll on Linux (ioloop_linux.go), a goroutine-per-conn
// fallback elsewhere (ioloop_other.go). The decoder is a resumable state
// machine over a small staging buffer:
//
//	stageHdr     waiting for the 4-byte length prefix + 1-byte type
//	stageFixed   waiting for the frame type's fixed fields
//	stagePayload waiting for the variable payload
//
// The payload stage is where the zero-copy eager path lives: once the
// fixed header names the payload length, the pooled destination buffer is
// allocated immediately, whatever bytes are already staged are copied
// once, and every subsequent socket read for that frame lands DIRECTLY in
// the pooled buffer — the very buffer a matched receive gets as its
// Msg.Data. Payload bytes therefore cross from kernel to receiver with at
// most one copy (the staged prefix), and none at match time.

// ioLoop is the platform readiness driver; see ioloop_linux.go and
// ioloop_other.go for the two implementations.
type ioLoop interface {
	// stop terminates the loop and waits for it to exit. After stop
	// returns no connection is being read, so the caller may close the
	// underlying descriptors.
	stop()
}

// Decoder stages.
const (
	stageHdr = iota
	stageFixed
	stagePayload
)

// connState is one peer connection plus its resumable decoder state.
// All decoder fields are owned by the I/O loop goroutine.
type connState struct {
	rank int
	conn net.Conn

	// Linux readiness loop only: a dup of the socket (sharing the file
	// description, which is non-blocking at OS level) used for raw epoll
	// reads while conn keeps its Go-blocking write semantics. The *os.File
	// must stay referenced or its finalizer closes the fd.
	file interface{ Close() error }
	fd   int

	buf  []byte // staging buffer
	r, w int    // unparsed staged bytes live in buf[r:w]

	stage   int
	ftype   byte
	body    int // total body bytes (everything after the length prefix)
	fixed   int // fixed-field byte count for ftype
	tag     comm.Tag
	xid     uint64
	msize   int
	hasData bool
	seq     int
	crc     uint32 // eager/fecpar payload checksum as claimed by the sender
	gid     uint64 // fec group id (fecpar/fecack/fecdead)
	gk      int    // fec group size k
	gm      int    // fec parity count m
	gidx    int    // fec parity shard index
	gatt    int    // fecdead: attempts spent before the give-up

	payload  []byte // destination for stagePayload; pooled for eager/data
	pooledPl bool
	pull     *rdvPull // data frame read into its receive's posted buffer
	plen     int
	got      int

	draining bool // Bye seen: discard everything until EOF
	dead     bool // deregistered from the loop
}

func newConnState(rank int, conn net.Conn) *connState {
	return &connState{rank: rank, conn: conn, fd: -1, buf: make([]byte, 64*1024)}
}

// midFrame reports whether the decoder is inside a frame — the
// distinction between a connection cut between frames (io.EOF) and one
// cut inside a frame (io.ErrUnexpectedEOF).
func (cs *connState) midFrame() bool {
	return cs.stage != stageHdr || cs.r < cs.w
}

// wantDirect reports whether the next socket read should land straight
// in the payload buffer (staging drained, payload incomplete).
func (cs *connState) wantDirect() bool {
	return cs.stage == stagePayload && cs.r == cs.w && cs.got < cs.plen
}

// directDst returns the remaining payload window for a direct read.
func (cs *connState) directDst() []byte { return cs.payload[cs.got:cs.plen] }

// advanceDirect accounts n bytes read directly into the payload and
// finishes the frame when it completes.
func (c *Comm) advanceDirect(cs *connState, n int) error {
	cs.got += n
	if cs.got < cs.plen {
		return nil
	}
	return c.finishFrame(cs)
}

// drainStaged parses as many complete frames as the staging buffer
// holds, dispatching each. Returns a protocol error that must kill the
// connection, or nil to wait for more bytes.
func (c *Comm) drainStaged(cs *connState) error {
	for {
		if cs.draining {
			cs.r, cs.w = 0, 0
			return nil
		}
		switch cs.stage {
		case stageHdr:
			if cs.w-cs.r < 5 {
				cs.compact()
				return nil
			}
			n := int(binary.LittleEndian.Uint32(cs.buf[cs.r:]))
			if n < 1 || n > maxFrameBody {
				return fmt.Errorf("nettransport: frame body %d bytes out of range", n)
			}
			cs.ftype = cs.buf[cs.r+4]
			cs.r += 5
			cs.body = n - 1
			perf.RecordNetFrameIn(4 + n)
			if err := cs.classify(); err != nil {
				return err
			}
			cs.stage = stageFixed
		case stageFixed:
			if cs.w-cs.r < cs.fixed {
				cs.compact()
				return nil
			}
			if err := c.parseFixed(cs); err != nil {
				return err
			}
			if cs.stage == stagePayload {
				// Copy whatever payload is already staged; the rest arrives by
				// direct reads into the pooled buffer.
				n := copy(cs.payload[cs.got:cs.plen], cs.buf[cs.r:cs.w])
				cs.r += n
				cs.got += n
				if cs.got < cs.plen {
					cs.compact()
					return nil
				}
				if err := c.finishFrame(cs); err != nil {
					return err
				}
			}
		default: // stagePayload with staged bytes (next frames behind a direct read)
			n := copy(cs.payload[cs.got:cs.plen], cs.buf[cs.r:cs.w])
			cs.r += n
			cs.got += n
			if cs.got < cs.plen {
				cs.compact()
				return nil
			}
			if err := c.finishFrame(cs); err != nil {
				return err
			}
		}
	}
}

// compact slides unparsed staged bytes to the buffer's front so the next
// read has room; the fixed decoder stages are all far smaller than the
// buffer, so a frame header can never fail to fit.
func (cs *connState) compact() {
	if cs.r == 0 {
		return
	}
	copy(cs.buf, cs.buf[cs.r:cs.w])
	cs.w -= cs.r
	cs.r = 0
}

// classify validates the frame type against its body length and sets the
// fixed-field byte count.
func (cs *connState) classify() error {
	switch cs.ftype {
	case frameIdent:
		if cs.body != 4 {
			return fmt.Errorf("nettransport: frame body %d bytes, want %d", cs.body, 4)
		}
		cs.fixed = 4
	case frameEager, frameRTS:
		if cs.body < eagerHdrLen {
			return fmt.Errorf("nettransport: short %d-byte eager/rts frame", cs.body)
		}
		cs.fixed = eagerHdrLen
	case frameCTS:
		if cs.body != 8 {
			return fmt.Errorf("nettransport: frame body %d bytes, want %d", cs.body, 8)
		}
		cs.fixed = 8
	case frameData:
		if cs.body < 8 {
			return fmt.Errorf("nettransport: short %d-byte data frame", cs.body)
		}
		cs.fixed = 8
	case frameCommit:
		if cs.body < 12 {
			return fmt.Errorf("nettransport: short %d-byte commit frame", cs.body)
		}
		cs.fixed = 12
	case frameBye:
		if cs.body != 0 {
			return fmt.Errorf("nettransport: bye frame with %d-byte body", cs.body)
		}
		cs.fixed = 0
	case frameFecParity:
		if cs.body < fecParityFixed {
			return fmt.Errorf("nettransport: short %d-byte fec parity frame", cs.body)
		}
		cs.fixed = fecParityFixed
	case frameFecAck:
		if cs.body != 8 {
			return fmt.Errorf("nettransport: frame body %d bytes, want %d", cs.body, 8)
		}
		cs.fixed = 8
	case frameFecDead:
		if cs.body < fecDeadFixed {
			return fmt.Errorf("nettransport: short %d-byte fec tombstone", cs.body)
		}
		cs.fixed = fecDeadFixed
	default:
		return fmt.Errorf("nettransport: unknown frame type %d", cs.ftype)
	}
	return nil
}

// parseFixed decodes the staged fixed fields and either finishes the
// frame (no payload) or arms the payload stage.
func (c *Comm) parseFixed(cs *connState) error {
	fix := cs.buf[cs.r : cs.r+cs.fixed]
	cs.r += cs.fixed
	plen := cs.body - cs.fixed
	switch cs.ftype {
	case frameIdent:
		// Legal only as a connection's first frame, which the mesh
		// bootstrap consumes before the loop starts.
		return io.ErrUnexpectedEOF
	case frameEager, frameRTS:
		cs.tag = comm.Tag(int64(binary.LittleEndian.Uint64(fix[0:])))
		cs.xid = binary.LittleEndian.Uint64(fix[8:])
		cs.msize = int(binary.LittleEndian.Uint32(fix[16:]))
		cs.hasData = fix[20]&flagHasData != 0
		cs.crc = binary.LittleEndian.Uint32(fix[21:])
		if cs.ftype == frameRTS && plen != 0 {
			return fmt.Errorf("nettransport: rts frame with %d payload bytes", plen)
		}
		if plen > 0 {
			cs.armPayload(comm.GetBuf(plen), true)
			return nil
		}
		return c.finishFrame(cs)
	case frameFecParity:
		cs.gid = binary.LittleEndian.Uint64(fix[0:])
		cs.gk = int(fix[8])
		cs.gm = int(fix[9])
		cs.gidx = int(fix[10])
		cs.crc = binary.LittleEndian.Uint32(fix[11:])
		if plen < cs.gk*fecMetaLen || cs.gidx >= cs.gm {
			return fmt.Errorf("nettransport: malformed fec parity frame (k=%d m=%d idx=%d body=%d)",
				cs.gk, cs.gm, cs.gidx, cs.body)
		}
		if plen > 0 {
			cs.armPayload(comm.GetBuf(plen), true)
			return nil
		}
		return c.finishFrame(cs)
	case frameFecAck:
		cs.gid = binary.LittleEndian.Uint64(fix[0:])
		return c.finishFrame(cs)
	case frameFecDead:
		cs.gid = binary.LittleEndian.Uint64(fix[0:])
		cs.gatt = int(binary.LittleEndian.Uint32(fix[8:]))
		cs.gk = int(fix[12])
		if plen != cs.gk*fecMetaLen {
			return fmt.Errorf("nettransport: fec tombstone roster %d bytes for k=%d", plen, cs.gk)
		}
		if plen > 0 {
			cs.armPayload(make([]byte, plen), false)
			return nil
		}
		return c.finishFrame(cs)
	case frameCTS:
		cs.xid = binary.LittleEndian.Uint64(fix[:])
		return c.finishFrame(cs)
	case frameData:
		cs.xid = binary.LittleEndian.Uint64(fix[:])
		if plen > 0 {
			cs.armPayload(c.dataDest(cs, plen))
			return nil
		}
		return c.finishFrame(cs)
	case frameCommit:
		cs.seq = int(int64(binary.LittleEndian.Uint64(fix[0:])))
		cnt := int(binary.LittleEndian.Uint32(fix[8:]))
		if cnt != plen {
			return fmt.Errorf("nettransport: commit mask %d entries in %d-byte body", cnt, plen+12)
		}
		if plen > 0 {
			cs.armPayload(make([]byte, plen), false)
			return nil
		}
		return c.finishFrame(cs)
	default: // frameBye
		return c.finishFrame(cs)
	}
}

func (cs *connState) armPayload(dst []byte, pooled bool) {
	cs.payload, cs.pooledPl, cs.plen, cs.got = dst, pooled, len(dst), 0
	cs.stage = stagePayload
}

// finishFrame dispatches a fully decoded frame to the matching engine
// (or the rendezvous/control handlers) and resets the decoder. Runs on
// the I/O loop goroutine; payload ownership transfers here.
func (c *Comm) finishFrame(cs *connState) error {
	ftype := cs.ftype
	payload := cs.payload
	cs.payload, cs.pooledPl, cs.plen, cs.got = nil, false, 0, 0
	cs.stage = stageHdr
	switch ftype {
	case frameEager:
		if crc32.ChecksumIEEE(payload) != cs.crc {
			// Damaged in flight: discard at the checksum. Corruption becomes
			// detected loss — repaired by the FEC layer's parity (or the
			// sender's group-resend timer), never delivered.
			if payload != nil {
				comm.PutBuf(payload)
			}
			perf.RecordFaultCorrupt()
			return nil
		}
		if c.fecRx != nil {
			c.fecRx.onEager(cs.rank, cs.tag, cs.xid, cs.msize, cs.hasData, payload)
			return nil
		}
		msg := comm.Msg{Size: cs.msize}
		if cs.hasData {
			if payload == nil {
				payload = []byte{} // zero-byte payload, not elided
			}
			msg.Data = payload
			if len(msg.Data) != cs.msize {
				msg.Data = msg.Data[:cs.msize]
			}
		} else if payload != nil {
			comm.PutBuf(payload)
		}
		c.Arrive(&progress.Env{Src: cs.rank, Tag: cs.tag, Msg: msg,
			HasData: cs.hasData, Xid: cs.xid})
	case frameRTS:
		c.Arrive(&progress.Env{Src: cs.rank, Tag: cs.tag,
			Msg: comm.Msg{Size: cs.msize}, Rdv: true, HasData: cs.hasData, Xid: cs.xid})
	case frameCTS:
		c.onCTS(cs.rank, cs.xid)
	case frameData:
		c.onData(cs, payload)
	case frameCommit:
		survivors := make([]bool, len(payload))
		for i, v := range payload {
			survivors[i] = v != 0
		}
		c.PushNotice(comm.Notice{Kind: comm.NoticeCommit, Seq: cs.seq, Survivors: survivors})
	case frameFecParity:
		if c.fecRx == nil || crc32.ChecksumIEEE(payload) != cs.crc {
			// No FEC armed here, or the parity itself arrived damaged: a
			// lost shard, same as a dropped one.
			if payload != nil {
				comm.PutBuf(payload)
				if c.fecRx != nil {
					perf.RecordFaultCorrupt()
				}
			}
			return nil
		}
		c.fecRx.onParity(cs.rank, cs.gid, cs.gk, cs.gm, cs.gidx, payload)
	case frameFecAck:
		if c.fecTx != nil {
			c.fecTx.onAck(cs.gid)
		}
	case frameFecDead:
		if c.fecRx != nil {
			c.fecRx.onDead(cs.rank, cs.gid, cs.gatt, payload)
		}
	case frameBye:
		// Clean shutdown: keep reading to EOF so the kernel can reclaim the
		// socket, but never treat what follows as a death.
		cs.draining = true
		cs.r, cs.w = 0, 0
	}
	return nil
}

// abort releases decoder resources when the connection dies mid-frame
// and marks it deregistered; a rendezvous payload cut off on its way
// into a posted buffer hands its receive back to the pull table.
func (c *Comm) abort(cs *connState) {
	c.abortPull(cs)
	if cs.payload != nil && cs.pooledPl {
		comm.PutBuf(cs.payload)
	}
	cs.payload = nil
	cs.pooledPl = false
	cs.dead = true
}

// ioError surfaces a connection failure observed by the I/O loop. During
// local teardown losses are expected and silent; otherwise the failure
// detector takes over.
func (c *Comm) ioError(cs *connState, err error) {
	if c.isClosed() {
		return
	}
	c.peerLost(cs.rank, err)
}

// eofError classifies an EOF for the detector: clean boundary or
// truncated frame.
func (cs *connState) eofError() error {
	if cs.midFrame() {
		return io.ErrUnexpectedEOF
	}
	return io.EOF
}
