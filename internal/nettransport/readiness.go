package nettransport

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"net"

	"adapt/internal/comm"
	"adapt/internal/frame"
	"adapt/internal/perf"
	"adapt/internal/progress"
)

// Readiness-driven frame decoding. Instead of a blocking reader
// goroutine per peer, every connection carries a resumable decoder
// (frame.Decoder) that a single I/O loop feeds whenever the socket is
// readable: epoll on Linux (ioloop_linux.go), the decoder's blocking
// driver on one goroutine per connection elsewhere (ioloop_other.go).
// connState is this protocol's frame-type codec plugged into it: the
// fixed-field length and validation of each frame type (Fixed), where
// a body lands (Body) and what a finished frame does (Dispatch).
//
// Body is where the zero-copy eager path lives: once the fixed fields
// name the payload length, a pooled buffer is allocated, whatever bytes
// are already staged are copied once, and every later socket read for
// that frame lands DIRECTLY in the pooled buffer, the very buffer a
// matched receive gets as its Msg.Data. A rendezvous payload whose
// receive was posted with a buffer (IrecvInto) lands in that buffer.

// ioLoop is the platform readiness driver; see ioloop_linux.go and
// ioloop_other.go for the two implementations.
type ioLoop interface {
	// stop terminates the loop and waits for it to exit. After stop
	// returns no connection is being read, so the caller may close the
	// underlying descriptors.
	stop()
}

// connState is one peer connection, its decoder, and the fixed fields
// of the frame being decoded. All decoder fields are owned by the I/O
// loop goroutine.
type connState struct {
	c    *Comm
	rank int
	conn net.Conn
	dec  *frame.Decoder

	// Linux readiness loop only: a dup of the socket (sharing the file
	// description, which is non-blocking at OS level) used for raw epoll
	// reads while conn keeps its Go-blocking write semantics. The *os.File
	// must stay referenced or its finalizer closes the fd.
	file interface{ Close() error }
	fd   int
	dead bool // deregistered from the epoll loop

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

	pooled bool     // the body being read is a pooled buffer
	pull   *rdvPull // data frame read into its receive's posted buffer
}

func newConnState(c *Comm, rank int, conn net.Conn) *connState {
	cs := &connState{c: c, rank: rank, conn: conn, fd: -1}
	cs.dec = frame.NewDecoder("nettransport", maxFrameBody, cs)
	return cs
}

// Fixed counts the frame, validates its type against its body length
// and returns the fixed-field byte count.
func (cs *connState) Fixed(typ byte, n int) (int, error) {
	perf.RecordNetFrameIn(frame.HeadLen + n)
	switch typ {
	case frameIdent:
		if n != 4 {
			return 0, fmt.Errorf("nettransport: frame body %d bytes, want %d", n, 4)
		}
		return 4, nil
	case frameEager, frameRTS:
		if n < eagerHdrLen {
			return 0, fmt.Errorf("nettransport: short %d-byte eager/rts frame", n)
		}
		return eagerHdrLen, nil
	case frameCTS:
		if n != 8 {
			return 0, fmt.Errorf("nettransport: frame body %d bytes, want %d", n, 8)
		}
		return 8, nil
	case frameData:
		if n < 8 {
			return 0, fmt.Errorf("nettransport: short %d-byte data frame", n)
		}
		return 8, nil
	case frameCommit:
		if n < 12 {
			return 0, fmt.Errorf("nettransport: short %d-byte commit frame", n)
		}
		return 12, nil
	case frameBye:
		if n != 0 {
			return 0, fmt.Errorf("nettransport: bye frame with %d-byte body", n)
		}
		return 0, nil
	case frameFecParity:
		if n < fecParityFixed {
			return 0, fmt.Errorf("nettransport: short %d-byte fec parity frame", n)
		}
		return fecParityFixed, nil
	case frameFecAck:
		if n != 8 {
			return 0, fmt.Errorf("nettransport: frame body %d bytes, want %d", n, 8)
		}
		return 8, nil
	case frameFecDead:
		if n < fecDeadFixed {
			return 0, fmt.Errorf("nettransport: short %d-byte fec tombstone", n)
		}
		return fecDeadFixed, nil
	}
	return 0, fmt.Errorf("nettransport: unknown frame type %d", typ)
}

// Body decodes the fixed fields and returns where the plen payload
// bytes go.
func (cs *connState) Body(typ byte, fix []byte, plen int) ([]byte, error) {
	cs.pooled = false
	switch typ {
	case frameIdent:
		// Legal only as a connection's first frame, which the mesh
		// bootstrap consumes before the loop starts.
		return nil, io.ErrUnexpectedEOF
	case frameEager, frameRTS:
		cs.tag = comm.Tag(int64(binary.LittleEndian.Uint64(fix[0:])))
		cs.xid = binary.LittleEndian.Uint64(fix[8:])
		cs.msize = int(binary.LittleEndian.Uint32(fix[16:]))
		cs.hasData = fix[20]&flagHasData != 0
		cs.crc = binary.LittleEndian.Uint32(fix[21:])
		if typ == frameRTS && plen != 0 {
			return nil, fmt.Errorf("nettransport: rts frame with %d payload bytes", plen)
		}
		cs.pooled = true
		return comm.GetBuf(plen), nil
	case frameFecParity:
		cs.gid = binary.LittleEndian.Uint64(fix[0:])
		cs.gk = int(fix[8])
		cs.gm = int(fix[9])
		cs.gidx = int(fix[10])
		cs.crc = binary.LittleEndian.Uint32(fix[11:])
		if plen < cs.gk*fecMetaLen || cs.gidx >= cs.gm {
			return nil, fmt.Errorf("nettransport: malformed fec parity frame (k=%d m=%d idx=%d body=%d)",
				cs.gk, cs.gm, cs.gidx, plen+fecParityFixed)
		}
		cs.pooled = true
		return comm.GetBuf(plen), nil
	case frameFecAck:
		cs.gid = binary.LittleEndian.Uint64(fix[0:])
	case frameCTS:
		cs.xid = binary.LittleEndian.Uint64(fix[0:])
	case frameFecDead:
		cs.gid = binary.LittleEndian.Uint64(fix[0:])
		cs.gatt = int(binary.LittleEndian.Uint32(fix[8:]))
		cs.gk = int(fix[12])
		if plen != cs.gk*fecMetaLen {
			return nil, fmt.Errorf("nettransport: fec tombstone roster %d bytes for k=%d", plen, cs.gk)
		}
		return plainBuf(plen), nil
	case frameData:
		cs.xid = binary.LittleEndian.Uint64(fix[:])
		if plen > 0 {
			return cs.c.dataDest(cs, plen), nil
		}
	case frameCommit:
		cs.seq = int(int64(binary.LittleEndian.Uint64(fix[0:])))
		if cnt := int(binary.LittleEndian.Uint32(fix[8:])); cnt != plen {
			return nil, fmt.Errorf("nettransport: commit mask %d entries in %d-byte body", cnt, plen+12)
		}
		return plainBuf(plen), nil
	}
	return nil, nil
}

// plainBuf is a GC-owned body buffer: nil for no bytes.
func plainBuf(n int) []byte {
	if n == 0 {
		return nil
	}
	return make([]byte, n)
}

// Dispatch hands a finished frame to the matching engine (or the
// rendezvous/control handlers). Runs on the I/O loop goroutine; payload
// ownership transfers here.
func (cs *connState) Dispatch(typ byte, payload []byte) error {
	c := cs.c
	switch typ {
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
		cs.dec.Discard()
	}
	return nil
}

// Abort releases the body of a frame the connection died inside; a
// rendezvous payload cut off on its way into a posted buffer hands its
// receive back to the pull table.
func (cs *connState) Abort(body []byte) {
	cs.c.abortPull(cs)
	if cs.pooled && body != nil {
		comm.PutBuf(body)
	}
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
