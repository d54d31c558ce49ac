package nettransport

import (
	"encoding/binary"

	"adapt/internal/comm"
	"adapt/internal/frame"
)

// Wire format: every frame is a 4-byte little-endian length prefix (the
// byte count of everything after the prefix) followed by a 1-byte frame
// type and a type-specific body. Fixed-width fields are little-endian.
//
//	ident   u32 rank                                  — first frame on a dialed conn
//	eager   i64 tag, u64 xid, u32 size, u8 flags, u32 crc, payload
//	rts     i64 tag, u64 xid, u32 size, u8 flags, u32 crc — rendezvous announcement (crc 0)
//	cts     u64 xid                                   — clear-to-send grant
//	data    u64 xid, payload                          — rendezvous payload
//	commit  i64 seq, u32 n, n×u8 survivors            — control-plane commit fan-out
//	bye     (empty)                                   — clean shutdown; EOF after it is not a death
//	fecpar  u64 gid, u8 k, u8 m, u8 idx, u32 crc, k×meta, parity — one parity shard
//	fecack  u64 gid                                   — receiver: group fully delivered
//	fecdead u64 gid, u32 attempts, u8 k, k×meta       — sender gave the group up
//
// The xid is a sender-local transfer id: it pairs a data frame (or grant)
// with the announcement that created it, bypassing tag matching for the
// second half of a rendezvous. flags bit 0 records whether the message
// carries real bytes — a payload-elided comm.Msg travels as a zero-byte
// payload with the logical size in the header, and must come back out as
// an elided Msg on the receiver.
//
// The eager crc is an IEEE CRC-32 over the payload bytes: a frame whose
// payload arrives damaged (the chaos injector's corrupt rule flips wire
// bits) is discarded at the checksum, turning corruption into detected
// loss — which the FEC layer (fec.go) then repairs from parity. A fecpar
// frame carries its group's roster (one 25-byte meta per member: tag,
// xid, size, payload length, flags) so the receiver can identify the
// erasures; its crc covers everything after the fixed fields. fecdead is
// the sender's tombstone after the retransmit budget: the receiver fails
// the group's unseen members with a structured timeout.
const (
	frameIdent = byte(iota)
	frameEager
	frameRTS
	frameCTS
	frameData
	frameCommit
	frameBye
	frameFecParity
	frameFecAck
	frameFecDead
)

const (
	flagHasData = 1 << 0

	// eagerHdrLen is the fixed body length of eager/rts frames before the
	// payload: tag(8) + xid(8) + size(4) + flags(1) + crc(4).
	eagerHdrLen = 25

	// fecMetaLen is one group-member roster entry in fecpar/fecdead
	// frames: tag(8) + xid(8) + size(4) + plen(4) + flags(1).
	fecMetaLen = 25

	// fecParityFixed is the fecpar fixed prefix: gid(8) + k(1) + m(1) +
	// idx(1) + crc(4).
	fecParityFixed = 15

	// fecDeadFixed is the fecdead fixed prefix: gid(8) + attempts(4) + k(1).
	fecDeadFixed = 13

	// maxFrameBody bounds a frame body read from the wire; anything larger
	// is a corrupt or hostile stream, not a legal message (the pool's
	// largest class is 64 MB and collectives segment well below that).
	maxFrameBody = 1 << 30
)

// encodeIdent builds the mesh handshake frame announcing the dialer's rank.
func encodeIdent(rank int) []byte {
	b := frame.AppendHead(make([]byte, 0, 9), frameIdent, 4)
	return binary.LittleEndian.AppendUint32(b, uint32(rank))
}

// encodeEagerHdr builds the header of an eager or rts frame; payloadLen
// is the byte count that will follow (always 0 for rts) and crc its
// IEEE CRC-32 (0 for rts).
func encodeEagerHdr(ftype byte, tag comm.Tag, xid uint64, size, payloadLen int, hasData bool, crc uint32) []byte {
	b := frame.AppendHead(make([]byte, 0, 5+eagerHdrLen), ftype, eagerHdrLen+payloadLen)
	b = binary.LittleEndian.AppendUint64(b, uint64(tag))
	b = binary.LittleEndian.AppendUint64(b, xid)
	b = binary.LittleEndian.AppendUint32(b, uint32(size))
	var flags byte
	if hasData {
		flags |= flagHasData
	}
	b = append(b, flags)
	return binary.LittleEndian.AppendUint32(b, crc)
}

// fecMeta is one group member's roster entry as carried on the wire.
type fecMeta struct {
	tag     comm.Tag
	xid     uint64
	size    int // logical message size
	plen    int // payload (shard) byte count
	hasData bool
}

// appendFecMeta serializes one roster entry.
func appendFecMeta(b []byte, m fecMeta) []byte {
	b = binary.LittleEndian.AppendUint64(b, uint64(m.tag))
	b = binary.LittleEndian.AppendUint64(b, m.xid)
	b = binary.LittleEndian.AppendUint32(b, uint32(m.size))
	b = binary.LittleEndian.AppendUint32(b, uint32(m.plen))
	var flags byte
	if m.hasData {
		flags |= flagHasData
	}
	return append(b, flags)
}

// parseFecMeta decodes one roster entry from b.
func parseFecMeta(b []byte) fecMeta {
	return fecMeta{
		tag:     comm.Tag(int64(binary.LittleEndian.Uint64(b[0:]))),
		xid:     binary.LittleEndian.Uint64(b[8:]),
		size:    int(binary.LittleEndian.Uint32(b[16:])),
		plen:    int(binary.LittleEndian.Uint32(b[20:])),
		hasData: b[24]&flagHasData != 0,
	}
}

// encodeFecParityHdr builds the fixed prefix of a parity frame whose
// variable part (roster + parity bytes) totals payloadLen bytes.
func encodeFecParityHdr(gid uint64, k, m, idx int, crc uint32, payloadLen int) []byte {
	b := frame.AppendHead(make([]byte, 0, 5+fecParityFixed), frameFecParity, fecParityFixed+payloadLen)
	b = binary.LittleEndian.AppendUint64(b, gid)
	b = append(b, byte(k), byte(m), byte(idx))
	return binary.LittleEndian.AppendUint32(b, crc)
}

// encodeFecAck builds the group-delivered acknowledgement.
func encodeFecAck(gid uint64) []byte {
	b := frame.AppendHead(make([]byte, 0, 13), frameFecAck, 8)
	return binary.LittleEndian.AppendUint64(b, gid)
}

// encodeFecDead builds the sender's give-up tombstone with the group
// roster so the receiver can fail members it never saw.
func encodeFecDead(gid uint64, attempts int, metas []fecMeta) []byte {
	n := fecDeadFixed + len(metas)*fecMetaLen
	b := frame.AppendHead(make([]byte, 0, 5+n), frameFecDead, n)
	b = binary.LittleEndian.AppendUint64(b, gid)
	b = binary.LittleEndian.AppendUint32(b, uint32(attempts))
	b = append(b, byte(len(metas)))
	for _, m := range metas {
		b = appendFecMeta(b, m)
	}
	return b
}

// encodeCTS builds a clear-to-send grant for the given transfer.
func encodeCTS(xid uint64) []byte {
	b := frame.AppendHead(make([]byte, 0, 13), frameCTS, 8)
	return binary.LittleEndian.AppendUint64(b, xid)
}

// encodeDataHdr builds the header of a rendezvous payload frame.
func encodeDataHdr(xid uint64, payloadLen int) []byte {
	b := frame.AppendHead(make([]byte, 0, 13), frameData, 8+payloadLen)
	return binary.LittleEndian.AppendUint64(b, xid)
}

// encodeCommit builds a control-plane commit notice.
func encodeCommit(seq int, survivors []bool) []byte {
	b := frame.AppendHead(make([]byte, 0, 5+12+len(survivors)), frameCommit, 12+len(survivors))
	b = binary.LittleEndian.AppendUint64(b, uint64(int64(seq)))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(survivors)))
	for _, s := range survivors {
		if s {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	return b
}

// encodeBye builds the clean-shutdown frame.
func encodeBye() []byte {
	return frame.AppendHead(make([]byte, 0, 5), frameBye, 0)
}
