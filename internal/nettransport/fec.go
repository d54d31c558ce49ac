package nettransport

import (
	"hash/crc32"
	"sync"
	"time"

	"adapt/internal/comm"
	"adapt/internal/faults"
	"adapt/internal/fec"
	"adapt/internal/pool"
	"adapt/internal/progress"
)

// Forward error correction over the socket transport's eager frame
// stream — the only substrate where sender and receiver genuinely share
// nothing but the wire. The sender-side framer (fecSender) groups eager
// segments per destination, keeps its own snapshot of every payload,
// and when a group closes (K members or the idle-flush timer) encodes M
// parity shards and ships each as a fecpar frame carrying the group
// roster. The receiver-side reconstructor (fecTracker) retains a copy
// of every delivered eager payload, and on each parity arrival greedily
// checks the group: erasures within the surviving parity are decoded
// and delivered through the normal envelope path (duplicate-suppressed
// by the per-sender xid set), then the group is acknowledged.
//
// The ARQ backstop is the sender's per-group timer: a group not acked
// within the retransmit timeout is resent whole — every member and
// parity shard drawing fresh chaos verdicts — with full-jitter backoff,
// and after the attempt budget the sender tombstones the group
// (fecdead), which fails still-missing members at the receiver with a
// structured *faults.TimeoutError. Loss within the parity budget
// therefore costs no retransmit round trip (the ack beats the timer),
// and loss beyond it degrades to exactly the retry/timeout semantics
// the other substrates implement.
//
// Scope: chaos verdicts and FEC cover eager frames only. Rendezvous
// legs (RTS/CTS/DATA) and the control plane ride clean TCP — the
// protocol-level loss story for multi-frame transfers is future work.

// ---------------------------------------------------------------------
// Sender
// ---------------------------------------------------------------------

// fecSender is one endpoint's sender half: the shared group framer
// (one open group per destination, wall-clock idle flush) plus the
// substrate's own parity frames, acks and whole-group resends. Isend
// runs on the owner goroutine but flush/retransmit timers and acks (I/O
// loop) need the mutex.
type fecSender struct {
	c      *Comm
	rec    faults.Recovery
	framer *fec.Framer[fecMeta]

	mu     sync.Mutex
	sent   map[uint64]*txGroup // gid -> awaiting ack
	closed bool
}

// txGroup is a sealed group awaiting the receiver's ack. Its members are
// the roster; its shards, the framer-owned true-bytes snapshots. It
// holds two references, under fecSender.mu: the sent table's, dropped
// when the group resolves (ack, give-up or shutdown), and the armed
// retransmit timer's, dropped by a Stop that wins or else by the timer's
// own last firing. The last one hands the group back to the framer for
// reuse, so a timer that fires after a lost Stop still finds its own
// group, never a reissued one.
type txGroup struct {
	*fec.Group[fecMeta]
	attempts int  // transmissions spent (initial send is attempt 0)
	fellBack bool // timer fired at least once: the ARQ path ran
	timer    *time.Timer
	ref      pool.Ref
}

const txGroupKind = "nettransport.txGroup"

func newFecSender(c *Comm) *fecSender {
	rec := c.cfg.chaosRec
	if rec.MaxAttempts == 0 {
		rec = faults.DefaultRecovery()
	}
	f := &fecSender{c: c, rec: rec, sent: make(map[uint64]*txGroup)}
	f.framer = fec.NewFramer(c.cfg.fecCfg, &c.fecStats, rec.RTO/4,
		faults.WallClock(c.cfg.start).After, f.seal)
	return f
}

// send carries one eager segment under FEC: transmit it now (under this
// attempt's verdict), enroll it in the destination's open group. Takes
// ownership of payload. Owner goroutine.
func (f *fecSender) send(dst int, meta fecMeta, payload []byte) {
	f.c.transmitEager(dst, meta, payload, 0)
	if !f.framer.Add(f.c.rank, dst, meta, payload) {
		comm.PutBuf(payload)
	}
}

// seal ships a closed group's parity, then parks the group awaiting the
// receiver's ack under the retransmit timer.
func (f *fecSender) seal(fg *fec.Group[fecMeta]) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		f.framer.Recycle(fg)
		return
	}
	g := &txGroup{Group: fg}
	g.ref.Init(2)
	f.sent[g.ID] = g
	f.transmitParityLocked(g, 0)
	g.timer = time.AfterFunc(f.rec.RetryDelay(0, g.ID), func() { f.expire(g) })
}

// dropLocked releases one reference to g; the last returns the group
// to the framer. Caller holds f.mu.
func (f *fecSender) dropLocked(g *txGroup) {
	if g.ref.Release(txGroupKind) {
		f.framer.Recycle(g.Group)
	}
}

// resolveLocked takes a group out of the sent table: its timer's
// reference goes too if Stop wins, and the table's goes now. Caller
// holds f.mu.
func (f *fecSender) resolveLocked(g *txGroup) {
	delete(f.sent, g.ID)
	if g.timer.Stop() {
		f.dropLocked(g)
	}
	f.dropLocked(g)
}

// transmitParityLocked ships each parity shard as one fecpar frame under
// this attempt's chaos verdict (parity is redundancy: a dropped shard is
// simply absent until the next whole-group resend).
func (f *fecSender) transmitParityLocked(g *txGroup, attempt int) {
	c := f.c
	roster := make([]byte, 0, len(g.Members)*fecMetaLen)
	for _, m := range g.Members {
		roster = appendFecMeta(roster, m)
	}
	for j, shard := range g.Parity {
		// The verdict needs a message identity; parity has no tag or xid of
		// its own, so it borrows a KindFec tag and a group-derived id.
		ptag := comm.MakeTag(comm.KindFec, int(g.ID%uint64(comm.SeqWrap)), j)
		pxid := g.ID<<6 | uint64(j)
		v := c.inj.Message(c.rank, g.Dst, ptag, pxid, attempt, c.Now(), len(shard))
		if v.Drop {
			continue
		}
		body := comm.GetBuf(len(roster) + len(shard))
		copy(body, roster)
		copy(body[len(roster):], shard)
		crc := crc32.ChecksumIEEE(body)
		if v.Corrupt {
			body[int(pxid)%len(body)] ^= 0xa5
		}
		hdr := encodeFecParityHdr(g.ID, len(g.Members), g.Params.M, j, crc, len(body))
		c.enqueueAfter(g.Dst, v.Extra, outFrame{hdr: hdr, payload: body, pooled: true})
	}
}

// enqueueAfter queues fr for dst now, or after a verdict's extra delay.
func (c *Comm) enqueueAfter(dst int, extra time.Duration, fr outFrame) {
	if extra > 0 {
		time.AfterFunc(extra, func() { c.sched.enqueue(dst, fr) })
		return
	}
	c.sched.enqueue(dst, fr)
}

// expire is the group's retransmit timer: resend everything, or give up
// past the attempt budget and tombstone so the receiver can fail the
// missing members structurally.
func (f *fecSender) expire(g *txGroup) {
	c := f.c
	f.mu.Lock()
	g.ref.Live(txGroupKind)
	if f.sent[g.ID] != g {
		// Resolved (or shut down) while this firing raced a Stop: the
		// timer's reference is all that is left to drop.
		f.dropLocked(g)
		f.mu.Unlock()
		return
	}
	if !g.fellBack {
		// First fire: this group's losses outran (or lost) its parity and
		// the ARQ path is now paying round trips for it.
		g.fellBack = true
		c.fecStats.GroupLost()
	}
	g.attempts++
	if g.attempts >= f.rec.MaxAttempts {
		// The tombstone is the sender's final word — group control
		// traffic, not subject to injection. Its roster is encoded before
		// the group, fired timer and table entry both, goes back.
		dst, hdr := g.Dst, encodeFecDead(g.ID, g.attempts, g.Members)
		delete(f.sent, g.ID)
		f.dropLocked(g)
		f.dropLocked(g)
		f.mu.Unlock()
		c.inj.NoteTimeout()
		c.sched.enqueue(dst, outFrame{hdr: hdr})
		return
	}
	for i, meta := range g.Members {
		c.inj.NoteRetry()
		c.transmitEager(g.Dst, meta, g.Shards[i], g.attempts)
	}
	f.transmitParityLocked(g, g.attempts)
	g.timer = time.AfterFunc(f.rec.RetryDelay(g.attempts, g.ID), func() { f.expire(g) })
	f.mu.Unlock()
}

// onAck releases a group the receiver has fully delivered. I/O loop
// goroutine.
func (f *fecSender) onAck(gid uint64) {
	f.mu.Lock()
	if g := f.sent[gid]; g != nil {
		f.resolveLocked(g)
	}
	f.mu.Unlock()
}

// shutdown stops every timer and releases retained buffers (endpoint
// teardown; in-flight groups are abandoned, like any other frame cut off
// by Close).
func (f *fecSender) shutdown() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.closed = true
	for _, g := range f.framer.Stop() {
		f.framer.Recycle(g)
	}
	for _, g := range f.sent {
		f.resolveLocked(g)
	}
}

// transmitEager puts one wire copy of an eager segment on dst's queue
// per the chaos verdict for this attempt: drops never enqueue, corrupt
// copies fly with damaged bytes (the CRC still describes the true
// payload, so the receiver discards them), duplicates enqueue twice.
// data is borrowed, never retained.
func (c *Comm) transmitEager(dst int, meta fecMeta, data []byte, attempt int) {
	v := c.inj.Message(c.rank, dst, meta.tag, meta.xid, attempt, c.Now(), meta.size)
	if v.Drop {
		return
	}
	crc := crc32.ChecksumIEEE(data)
	wire := func() []byte {
		if data == nil {
			return nil
		}
		b := comm.GetBuf(len(data))
		copy(b, data)
		return b
	}
	hdr := encodeEagerHdr(frameEager, meta.tag, meta.xid, meta.size, len(data), meta.hasData, crc)
	first := wire()
	if v.Corrupt {
		if len(first) > 0 {
			first[int(meta.xid)%len(first)] ^= 0xa5
		} else {
			// Nothing to flip in the payload: damage the checksum field.
			hdr[len(hdr)-4] ^= 0xa5
		}
	}
	c.enqueueAfter(dst, v.Extra, outFrame{hdr: hdr, payload: first, pooled: true})
	if v.Dup {
		c.enqueueAfter(dst, v.Extra, outFrame{hdr: hdr, payload: wire(), pooled: true})
	}
}

// ---------------------------------------------------------------------
// Receiver
// ---------------------------------------------------------------------

// fecTracker is one endpoint's receive-side chaos state: per-sender
// duplicate suppression (resends and dup verdicts mean a frame can
// arrive twice) and, with FEC armed, retained payload copies plus group
// reconstruction. Frames arrive on the I/O loop; the mutex covers the
// goroutine-per-conn fallback driver and Close races.
type fecTracker struct {
	c      *Comm
	retain bool // FEC armed: keep copies for reconstruction

	mu     sync.Mutex
	seen   []map[uint64]bool     // per src: xids delivered (or failed)
	recent []map[uint64][]byte   // per src: payload copies awaiting group resolution
	groups []map[uint64]*rxGroup // per src: gid -> partially-arrived group
	done   []map[uint64]bool     // per src: resolved gids (late parity discarded)
}

// rxGroup is a group known from at least one parity arrival.
type rxGroup struct {
	metas  []fecMeta
	parity [][]byte // arrived shards by index, pooled
	got    int
}

func newFecTracker(c *Comm, retain bool) *fecTracker {
	t := &fecTracker{c: c, retain: retain,
		seen:   make([]map[uint64]bool, c.size),
		recent: make([]map[uint64][]byte, c.size),
		groups: make([]map[uint64]*rxGroup, c.size),
		done:   make([]map[uint64]bool, c.size)}
	for r := 0; r < c.size; r++ {
		t.seen[r] = make(map[uint64]bool)
		t.recent[r] = make(map[uint64][]byte)
		t.groups[r] = make(map[uint64]*rxGroup)
		t.done[r] = make(map[uint64]bool)
	}
	return t
}

// onEager delivers one CRC-clean eager frame: suppress duplicates,
// retain a copy for the group machinery, hand the envelope to the
// engine. Owns payload.
func (t *fecTracker) onEager(src int, tag comm.Tag, xid uint64, size int, hasData bool, payload []byte) {
	t.mu.Lock()
	if t.seen[src][xid] {
		t.mu.Unlock()
		if t.c.inj != nil {
			t.c.inj.NoteSuppressed()
		}
		if payload != nil {
			comm.PutBuf(payload)
		}
		return
	}
	t.seen[src][xid] = true
	var acks []uint64
	var envs []*progress.Env
	if t.retain {
		cp := []byte{}
		if len(payload) > 0 {
			cp = comm.GetBuf(len(payload))
			copy(cp, payload)
		}
		t.recent[src][xid] = cp
		// A parked group waiting on exactly this member (a delayed or
		// resent copy arriving after its parity) may now be resolvable.
		for gid, g := range t.groups[src] {
			if groupHas(g, xid) {
				acks, envs = t.evaluateLocked(src, gid, g, acks, envs)
			}
		}
	}
	t.mu.Unlock()
	t.c.Arrive(&progress.Env{Src: src, Tag: tag, Msg: eagerMsg(size, hasData, payload),
		HasData: hasData, Xid: xid})
	t.dispatch(src, acks, envs)
}

// eagerMsg wraps a delivered eager payload (pooled, owned by the
// receiver from here): trimmed to the logical size, released when the
// message elides its bytes.
func eagerMsg(size int, hasData bool, payload []byte) comm.Msg {
	msg := comm.Msg{Size: size}
	if hasData {
		if payload == nil {
			payload = []byte{}
		}
		msg.Data = payload[:size]
	} else if payload != nil {
		comm.PutBuf(payload)
	}
	return msg
}

func groupHas(g *rxGroup, xid uint64) bool {
	for _, m := range g.metas {
		if m.xid == xid {
			return true
		}
	}
	return false
}

// onParity registers one CRC-clean parity shard and greedily evaluates
// its group. body (pooled) is the roster followed by the shard bytes.
func (t *fecTracker) onParity(src int, gid uint64, k, m, idx int, body []byte) {
	t.mu.Lock()
	if t.done[src][gid] {
		t.mu.Unlock()
		comm.PutBuf(body)
		return
	}
	g := t.groups[src][gid]
	if g == nil {
		g = &rxGroup{metas: make([]fecMeta, k), parity: make([][]byte, m)}
		for i := 0; i < k; i++ {
			g.metas[i] = parseFecMeta(body[i*fecMetaLen:])
		}
		t.groups[src][gid] = g
	}
	if g.parity[idx] == nil {
		shard := body[k*fecMetaLen:]
		cp := []byte{}
		if len(shard) > 0 {
			cp = comm.GetBuf(len(shard))
			copy(cp, shard)
		}
		g.parity[idx] = cp
		g.got++
	}
	comm.PutBuf(body)
	acks, envs := t.evaluateLocked(src, gid, g, nil, nil)
	t.mu.Unlock()
	t.dispatch(src, acks, envs)
}

// evaluateLocked resolves a group if it can: all members present → ack;
// erasures within arrived parity → reconstruct, deliver, ack. Appends
// work for the caller to dispatch outside the lock.
func (t *fecTracker) evaluateLocked(src int, gid uint64, g *rxGroup, acks []uint64, envs []*progress.Env) ([]uint64, []*progress.Env) {
	var missing []int
	for i, mt := range g.metas {
		if _, ok := t.recent[src][mt.xid]; !ok {
			missing = append(missing, i)
		}
	}
	if len(missing) > 0 {
		if !fec.Recoverable(len(missing), g.got) {
			return acks, envs // not enough parity yet; more may arrive, or the resend will
		}
		k := len(g.metas)
		shards := make([][]byte, k)
		sizes := make([]int, k)
		for i, mt := range g.metas {
			sizes[i] = mt.plen
			shards[i] = t.recent[src][mt.xid]
		}
		data := t.c.fecStats.Decode(fec.Params{K: k, M: len(g.parity)}, shards, missing, g.parity, sizes)
		if data == nil {
			return acks, envs
		}
		for _, i := range missing {
			mt := g.metas[i]
			if t.seen[src][mt.xid] {
				comm.PutBuf(data[i])
				continue
			}
			t.seen[src][mt.xid] = true
			envs = append(envs, &progress.Env{Src: src, Tag: mt.tag,
				Msg: eagerMsg(mt.size, mt.hasData, data[i]), HasData: mt.hasData, Xid: mt.xid})
		}
	}
	t.finishLocked(src, gid, g)
	return append(acks, gid), envs
}

// finishLocked retires a resolved group: evict retained member copies,
// release parity, remember the gid so late shards are discarded.
func (t *fecTracker) finishLocked(src int, gid uint64, g *rxGroup) {
	for _, mt := range g.metas {
		if b, ok := t.recent[src][mt.xid]; ok {
			comm.PutBuf(b)
			delete(t.recent[src], mt.xid)
		}
	}
	for _, p := range g.parity {
		if p != nil {
			comm.PutBuf(p)
		}
	}
	delete(t.groups[src], gid)
	t.done[src][gid] = true
}

// onDead handles a sender's give-up tombstone: every member the
// receiver never saw fails its matched (or future) receive with the
// structured timeout. roster is the frame's non-pooled meta block.
func (t *fecTracker) onDead(src int, gid uint64, attempts int, roster []byte) {
	t.mu.Lock()
	if t.done[src][gid] {
		t.mu.Unlock()
		return
	}
	var envs []*progress.Env
	k := len(roster) / fecMetaLen
	metas := make([]fecMeta, k)
	for i := 0; i < k; i++ {
		metas[i] = parseFecMeta(roster[i*fecMetaLen:])
	}
	for _, mt := range metas {
		if t.seen[src][mt.xid] {
			continue
		}
		t.seen[src][mt.xid] = true
		envs = append(envs, &progress.Env{Src: src, Tag: mt.tag,
			Msg: comm.Msg{Size: mt.size}, HasData: mt.hasData, Xid: mt.xid,
			Err: &faults.TimeoutError{Rank: src, Peer: t.c.rank, Tag: mt.tag,
				Attempts: attempts}})
	}
	g := t.groups[src][gid]
	if g == nil {
		g = &rxGroup{metas: metas} // no parity ever arrived
	}
	t.finishLocked(src, gid, g)
	t.mu.Unlock()
	for _, env := range envs {
		t.c.Arrive(env)
	}
}

// dispatch performs deferred deliveries and acks outside the tracker
// lock (Arrive takes the engine lock; the ack draws an injector verdict
// and enqueues on the scheduler).
func (t *fecTracker) dispatch(src int, acks []uint64, envs []*progress.Env) {
	for _, env := range envs {
		t.c.Arrive(env)
	}
	for _, gid := range acks {
		if t.c.inj != nil &&
			t.c.inj.AckDrop(t.c.rank, src, comm.MakeTag(comm.KindFec, int(gid%uint64(comm.SeqWrap)), 0), gid, 0, t.c.Now()) {
			continue // lost ack: the sender's timer will resend the group
		}
		t.c.sched.enqueue(src, outFrame{hdr: encodeFecAck(gid)})
	}
}

// ---------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------

// FaultStats returns this endpoint's injector counters (zero without
// WithChaos).
func (c *Comm) FaultStats() faults.Stats { return c.inj.Stats() }

// FECStats returns this endpoint's FEC counters: parity and lost groups
// from its sender half, reconstructions from its receiver half.
func (c *Comm) FECStats() fec.Stats { return c.fecStats.Stats() }
