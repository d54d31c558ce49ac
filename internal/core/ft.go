package core

import (
	"adapt/internal/comm"
	"adapt/internal/faults"
	"adapt/internal/trees"
)

// Fail-stop fault-tolerant collectives (BcastFT, ReduceFT). This file
// holds the pieces both share; the per-collective state machines live in
// bcast_ft.go and reduce_ft.go.
//
// The FT collectives run on any comm.Comm; when the endpoint also
// implements comm.FailStop with crash rules armed, they survive fail-stop
// crashes of non-root ranks: the failure detector confirms a death, every
// survivor heals the spanning tree deterministically (trees.Heal), orphans
// re-attach to their grandparent and re-drive the segments they are
// missing, and the root commits a survivor mask once every live rank has
// accounted for the operation. A dead root is unrecoverable by design —
// the payload source (bcast) or fold destination (reduce) is gone — and
// every survivor returns a structured *faults.RankFailedError.
//
// Like every other collective here, each is a nonblocking state machine
// (StartBcastFT, StartReduceFT) driven by the rank's progress engine:
// completion callbacks and control-plane notices (deaths, the root's
// commit) arrive as events through comm.FailStop.Watch, and after each
// event the machine checks whether it may send its FINs or finish.
//
// Teardown uses a quiesce handshake so no rank exits with operations in
// flight: after its own data sends drain, a rank sends a FIN control
// message to each live peer it sent payload to; a peer holding posted
// receives from that rank cancels the leftovers only when the FIN proves
// nothing more is coming (cancelling earlier could strand a live sender's
// rendezvous announcement in the unexpected queue forever).

// FTResult is the outcome of a fault-tolerant collective on one rank.
type FTResult struct {
	// Msg is the collective's payload result: the delivered broadcast
	// message, or (at the root) the survivor-set reduction. Valid only
	// when Err is nil.
	Msg comm.Msg
	// Survivors marks the ranks the operation committed over: true =
	// participated, false = confirmed dead and excluded. On a committed
	// run every live rank reports an identical mask.
	Survivors []bool
	// Err is non-nil when the operation cannot complete on the survivor
	// set (the root died): a *faults.RankFailedError.
	Err error
}

// WaitFT is Wait for a fault-tolerant collective: it drives the op to
// completion and returns the rank's FTResult. An op that runs the
// crash-free fallback reports an all-true survivor mask.
func (o *Op) WaitFT() FTResult {
	msg := o.Wait()
	if s, ok := o.st.(interface{ ftResult() FTResult }); ok {
		return s.ftResult()
	}
	return FTResult{Msg: msg, Survivors: allLive(o.c.Size())}
}

// ftBase is the half of an FT state machine both collectives share: the
// handle, the control-plane watch, the death mask, and the quiesce
// handshake that decides when the rank may finish. The collective
// embedding it supplies the rest through ftMachine.
type ftBase struct {
	op    Op
	c     comm.Comm
	fs    comm.FailStop
	t     *trees.Tree // original tree; healing always restarts from it
	opt   Options
	n     int
	ns    int
	rank  int
	total int
	space comm.MemSpace
	m     ftMachine

	dead     []bool               // cumulative confirmed deaths processed so far
	sentTo   map[int]bool         // live peers that may hold receives from us (FIN targets)
	finRecvs map[int]comm.Request // posted FIN receives, by sender

	sendsOut   int // every in-flight send
	dataOut    int // in-flight payload sends only (gates FIN emission)
	finSent    bool
	finishing  bool
	done       bool
	commitMask []bool
	abortErr   error
	unwatch    func()
}

// ftMachine is the collective-specific half of an FT state machine.
type ftMachine interface {
	opState          // pending and result, from the embedded ftBase
	onDeath(r int)   // process one confirmed death (idempotent)
	teardown()       // enter the quiesce handshake
	recvsOpen() bool // data receives still outstanding
	payload() []byte // the result bytes of a committed run
}

func newFTBase(c comm.Comm, fs comm.FailStop, t *trees.Tree, msg comm.Msg, opt Options, m ftMachine) ftBase {
	return ftBase{
		op: Op{c: c, st: m}, c: c, fs: fs, t: t, opt: opt, m: m,
		n: c.Size(), rank: c.Rank(), total: msg.Size, space: msg.Space,
		ns:       comm.NumSegments(msg.Size, opt.SegSize),
		dead:     make([]bool, c.Size()),
		sentTo:   make(map[int]bool),
		finRecvs: make(map[int]comm.Request),
	}
}

func (b *ftBase) pending() bool    { return !b.done }
func (b *ftBase) result() comm.Msg { return b.ftResult().Msg }

func (b *ftBase) ftResult() FTResult {
	if b.abortErr != nil {
		return FTResult{Survivors: liveMask(b.dead), Err: b.abortErr}
	}
	return FTResult{Msg: comm.Msg{Data: b.m.payload(), Size: b.total, Space: b.space},
		Survivors: b.commitMask}
}

// watch subscribes the machine to the control plane and replays the
// deaths confirmed before this collective began: their notices went to
// an earlier operation (or to nobody), and a back-to-back collective
// must start from the healed tree instead of waiting on a dead rank.
func (b *ftBase) watch() {
	b.unwatch = b.fs.Watch(b.onNotice)
	for r, d := range b.fs.ConfirmedDead() {
		if d {
			b.m.onDeath(r)
		}
	}
}

func (b *ftBase) onNotice(nt comm.Notice) {
	switch nt.Kind {
	case comm.NoticeCommit:
		if nt.Seq == b.opt.Seq && !b.finishing {
			b.commitMask = nt.Survivors
			b.m.teardown()
		}
	case comm.NoticeDeath:
		b.m.onDeath(nt.Rank)
	}
	b.step()
}

// on attaches fn to r and steps the machine once fn has run.
func (b *ftBase) on(r comm.Request, fn func(comm.Status)) {
	b.c.OnComplete(r, func(st comm.Status) {
		fn(st)
		b.step()
	})
}

// send issues one tracked send; a payload send also makes dst a FIN
// target and holds the FINs back until it completes. then, if non-nil,
// runs on completion.
func (b *ftBase) send(dst int, tag comm.Tag, msg comm.Msg, payload bool, then func()) {
	b.sendsOut++
	if payload {
		b.dataOut++
		b.sentTo[dst] = true
	}
	b.on(b.c.Isend(dst, tag, msg), func(comm.Status) {
		b.sendsOut--
		if payload {
			b.dataOut--
		}
		if then != nil {
			then()
		}
	})
}

// step runs after every event: once teardown has begun and the payload
// sends have drained, FIN the peers; once the FINs are out and every
// send and data receive has settled, cancel the leftover FIN receives
// (FIN senders are eager, so that is safe), stop watching and finish.
func (b *ftBase) step() {
	if b.done || !b.finishing {
		return
	}
	if !b.finSent && b.dataOut == 0 {
		b.sendFins()
	}
	if !b.finSent || b.sendsOut != 0 || b.m.recvsOpen() {
		return
	}
	for r, req := range b.finRecvs {
		b.fs.CancelRecv(req)
		delete(b.finRecvs, r)
	}
	b.done = true
	b.unwatch()
}

// sendFins tells every live peer that may hold receives from us that
// nothing more is coming.
func (b *ftBase) sendFins() {
	b.finSent = true
	for p := 0; p < b.n; p++ { // rank order keeps the send schedule deterministic
		if b.sentTo[p] && !b.dead[p] {
			b.send(p, b.opt.finTag(b.n, b.rank), comm.Sized(1), false, nil)
		}
	}
}

// awaitFin posts the receive for p's FIN; then runs once it lands.
func (b *ftBase) awaitFin(p int, then func()) {
	req := b.c.Irecv(p, b.opt.finTag(b.n, p))
	b.finRecvs[p] = req
	b.on(req, func(comm.Status) { // a FIN is size-only: no buffer to return
		delete(b.finRecvs, p)
		then()
	})
}

// forget marks r dead: no FIN is expected from it or owed to it.
func (b *ftBase) forget(r int) {
	b.dead[r] = true
	if req, ok := b.finRecvs[r]; ok {
		b.fs.CancelRecv(req)
		delete(b.finRecvs, r)
	}
	delete(b.sentTo, r)
}

// commit (root only) fixes the survivor mask and fans it out. The
// fan-out counts as a send initiation: a root crashed exactly at its
// commit point dies here and the survivors abort.
func (b *ftBase) commit() {
	b.commitMask = liveMask(b.dead)
	b.fs.Commit(b.opt.Seq, b.commitMask)
	b.m.teardown()
}

// abort ends the collective on this survivor: the root r is gone.
func (b *ftBase) abort(r int, kind comm.CollKind) {
	b.abortErr = &faults.RankFailedError{Rank: r, Kind: kind, Seq: b.opt.Seq}
	b.m.teardown()
}

// failStopOf returns the endpoint's fail-stop control plane when crash
// rules are armed; ok=false selects the plain (non-FT) engine.
func failStopOf(c comm.Comm) (comm.FailStop, bool) {
	fs, ok := c.(comm.FailStop)
	return fs, ok && fs.CrashesEnabled()
}

// allLive is the survivor mask of a crash-free run.
func allLive(n int) []bool {
	m := make([]bool, n)
	for i := range m {
		m[i] = true
	}
	return m
}

// liveMask inverts a death mask.
func liveMask(dead []bool) []bool {
	m := make([]bool, len(dead))
	for i, d := range dead {
		m[i] = !d
	}
	return m
}

// packBits encodes a segment bitmap for the wire (re-drive requests),
// little-endian within each byte. Always at least one byte so the message
// carries real data even when nothing is missing.
func packBits(bits []bool) []byte {
	out := make([]byte, (len(bits)+7)/8+1)
	for i, b := range bits {
		if b {
			out[i/8] |= 1 << (i % 8)
		}
	}
	return out
}

// unpackBits decodes a packBits payload back into n segment flags.
func unpackBits(data []byte, n int) []bool {
	out := make([]bool, n)
	for i := range out {
		if i/8 < len(data) && data[i/8]&(1<<(i%8)) != 0 {
			out[i] = true
		}
	}
	return out
}

// finTag is the quiesce handshake tag for FINs sent by rank r in a world
// of n ranks. The segment space n+r keeps it disjoint from done
// notifications (KindDone, seg = sender rank < n) under the same seq.
func (o Options) finTag(n, r int) comm.Tag {
	return o.TagOf(comm.KindDone, n+r)
}

// healed returns t healed around the cumulative death mask, or t itself
// while nobody has died.
func healed(t *trees.Tree, dead []bool) *trees.Tree {
	for _, d := range dead {
		if d {
			return t.Heal(dead)
		}
	}
	return t
}
