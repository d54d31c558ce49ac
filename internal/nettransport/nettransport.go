// Package nettransport is the multi-process message-passing substrate:
// each rank is its own OS process (or, in tests, its own endpoint inside
// one process) and point-to-point traffic travels over TCP as
// length-prefixed frames carrying (tag, xid, payload).
//
// It implements comm.Comm through the shared matching core in
// internal/progress — the same posted-receive queue, unexpected-message
// queue, eager and rendezvous (RTS/CTS) protocols, and completion
// callbacks as the other substrates — so every collective in
// internal/coll and internal/core runs on it unchanged. Where the
// runtime moves payloads between goroutines, this substrate serializes
// them through sockets: eager messages ship their bytes with the
// announcement, large messages announce first (RTS) and stream the
// payload only after the receiver matches and grants (CTS), which keeps
// unexpected-queue memory bounded by announcements rather than payloads.
//
// I/O is readiness-driven, not goroutine-per-peer: each endpoint runs
// ONE reader (an epoll loop multiplexing every peer connection with
// non-blocking reads, see ioloop_linux.go) and ONE writer (a
// frame.Writer draining per-peer queues round-robin with
// writev-coalesced batches), so the goroutine count is O(1) per
// endpoint regardless of world size.
//
// Fail-stop semantics come from the sockets themselves: a peer that
// vanishes without the clean Bye handshake trips a lease-based failure
// detector (suspicion then confirmation, timing from faults.Recovery)
// and surfaces as a death Notice on the comm.FailStop control plane —
// exactly the contract the FT collectives in internal/core consume, so a
// killed worker process yields a structured *faults.RankFailedError
// instead of a hang.
package nettransport

import (
	"fmt"
	"hash/crc32"
	"net"
	"sync"
	"time"

	"adapt/internal/comm"
	"adapt/internal/faults"
	"adapt/internal/fec"
	"adapt/internal/frame"
	"adapt/internal/progress"
	"adapt/internal/trace"
)

// DefaultEagerLimit is the eager/rendezvous protocol switch-over: a
// message of exactly this many bytes still travels eagerly, one byte more
// announces first. All three substrates share the same inclusive
// boundary (see the cross-substrate parity test in internal/conform).
const DefaultEagerLimit = 8 * 1024

// config carries the tuning every endpoint needs, shared by the
// in-process LocalWorld and the multi-process cluster bootstrap.
type config struct {
	eagerLimit   int
	rec          faults.Recovery // detector leases + dial backoff
	crashPlan    []faults.Crash
	crashArmed   bool // any rank anywhere has a crash rule (FT path on)
	traceBuf     *trace.Buffer
	start        time.Time
	crashExit    func() // how a dying rank leaves (Goexit in-process, Exit(3) in a worker)
	onPeerDeath  func(rank int)
	dialRecovery faults.Recovery

	// Message-level chaos + erasure coding (LocalWorld testing surface;
	// cluster workers stay chaos-free). See fec.go.
	chaosOn   bool
	chaosPlan faults.Plan
	chaosRec  faults.Recovery
	fecCfg    fec.Config
}

func defaultConfig() config {
	rec := faults.DefaultRecovery()
	// Socket teardown is observed, not inferred from silence, so the
	// simulator's microsecond leases would race scheduler jitter on a
	// loaded host; stretch them to solid wall-clock margins.
	rec.SuspectAfter = 2 * time.Millisecond
	rec.ConfirmAfter = 5 * time.Millisecond
	return config{
		eagerLimit: DefaultEagerLimit,
		rec:        rec,
		start:      time.Now(),
		// Mesh dials race worker start-up: retry for a few seconds with
		// exponential backoff before declaring the peer unreachable.
		dialRecovery: faults.Recovery{RTO: 2 * time.Millisecond, Backoff: 2, MaxAttempts: 14}.Normalized(),
	}
}

// Option configures a LocalWorld or a cluster worker endpoint.
type Option func(*config)

// WithEagerLimit overrides the eager protocol threshold.
func WithEagerLimit(n int) Option {
	return func(c *config) { c.eagerLimit = n }
}

// WithCrashes arms a fail-stop crash schedule (the plan's Crashes only;
// message-level chaos rules are the other substrates' business).
func WithCrashes(crashes []faults.Crash) Option {
	return func(c *config) {
		c.crashPlan = append([]faults.Crash(nil), crashes...)
		c.crashArmed = c.crashArmed || len(crashes) > 0
	}
}

// WithCrashesArmed marks the world as crash-enabled even on ranks without
// a rule of their own — every process in a cluster must agree on whether
// the FT collectives take their crash-tolerant path.
func WithCrashesArmed() Option {
	return func(c *config) { c.crashArmed = true }
}

// WithTrace attaches a causal trace buffer. Timestamps are wall-clock
// offsets from the endpoint's creation; across processes each worker
// records into its own buffer.
func WithTrace(tb *trace.Buffer) Option {
	return func(c *config) { c.traceBuf = tb }
}

// WithCrashExit overrides how a rank that hits its crash point leaves.
// In-process worlds default to exiting the rank's goroutine; a worker
// process passes os.Exit so the whole process dies like a real crash.
func WithCrashExit(f func()) Option {
	return func(c *config) { c.crashExit = f }
}

// WithDeathHook registers a callback fired (off the owner goroutine)
// when the detector confirms a peer death — launcher-side bookkeeping.
func WithDeathHook(f func(rank int)) Option {
	return func(c *config) { c.onPeerDeath = f }
}

// WithChaos arms message-level fault injection on the eager frame
// stream: each eager transmission draws a deterministic verdict from the
// plan — dropped frames never reach the socket, corrupted ones fly with
// damaged bytes and die at the receiver's CRC, duplicates are enqueued
// twice. rec tunes the FEC layer's group-resend backstop; use wall-clock
// RTOs (tens of milliseconds), not the simulator's microsecond defaults.
// Recovery from loss is the FEC machinery's job (WithFEC): without it,
// a dropped eager frame is lost for good, exactly like the runtime's
// exhausted-retry path.
func WithChaos(plan faults.Plan, rec faults.Recovery) Option {
	return func(c *config) {
		c.chaosOn = true
		c.chaosPlan = plan
		c.chaosRec = rec.Normalized()
	}
}

// WithFEC arms erasure coding over the eager segment stream: senders
// group segments per destination, encode parity, and resend whole groups
// on an un-acked timer; receivers reconstruct within-parity erasures
// with no retransmit round trip. See fec.go.
func WithFEC(cfg fec.Config) Option {
	return func(c *config) { c.fecCfg = cfg.Normalized() }
}

// rdvPull is a matched rendezvous receive parked until the payload frame
// arrives (or the sender's death fails it).
type rdvPull struct {
	req     *progress.Req
	tag     comm.Tag
	size    int
	hasData bool
}

// pullKey names a parked pull: xids are numbered per sender, so only
// the pair is unique at the receiver.
type pullKey struct {
	src int
	xid uint64
}

// Comm is one rank's endpoint. Its blocking methods must be called from
// the rank's own goroutine; frame delivery runs on the endpoint's single
// I/O loop goroutine.
type Comm struct {
	// The embedded engine supplies matching, the wait loops, notices and
	// tracing; this type supplies the socket transport around it.
	*progress.Engine

	rank, size int
	cfg        config
	ln         net.Listener
	conns      []*connState  // conns[rank] == nil
	w          *frame.Writer // one queue per peer; see internal/frame
	io         ioLoop        // platform readiness loop (see ioloop_*.go)

	// mu guards the wire-protocol state below. Lock order: c.mu may be
	// held around engine calls (substrate lock → engine lock), never the
	// reverse.
	mu       sync.Mutex
	sendPend map[uint64]*progress.Req // own xid → rendezvous send awaiting CTS
	pulls    map[pullKey]*rdvPull     // matched recv awaiting DATA
	lostAt   []int64                  // metrics.Clock() at loss observation (telemetry)
	closed   bool                     // clean shutdown begun; losses are expected

	xidNext uint64 // owner-goroutine only

	// Chaos + FEC (nil without WithChaos/WithFEC; see fec.go).
	inj      *faults.Injector
	fecTx    *fecSender
	fecRx    *fecTracker
	fecStats fec.Counters

	// Fail-stop plane: this endpoint's crash schedule and the lease
	// detector over its peers (see detector.go).
	crash *faults.Plane
}

var (
	_ comm.Comm     = (*Comm)(nil)
	_ comm.FailStop = (*Comm)(nil)
)

// newComm builds an endpoint around an already-listening socket; the
// peers are wired afterwards by joinMesh.
func newComm(rank, size int, ln net.Listener, cfg config) *Comm {
	c := &Comm{
		rank: rank, size: size, cfg: cfg, ln: ln,
		conns:    make([]*connState, size),
		sendPend: make(map[uint64]*progress.Req),
		pulls:    make(map[pullKey]*rdvPull),
		lostAt:   make([]int64, size),
	}
	c.crash = faults.NewPlane(size, rank, cfg.crashPlan, cfg.rec, faults.WallClock(cfg.start),
		func() *trace.Buffer { return c.cfg.traceBuf }, c.confirmDeath)
	c.Engine = progress.New(progress.Backend{
		Prefix:  "nettransport",
		Rank:    rank,
		Size:    size,
		Now:     c.Now,
		Trace:   func() *trace.Buffer { return c.cfg.traceBuf },
		OnMatch: c.onMatch,
	})
	if cfg.chaosOn {
		// Every endpoint builds its own injector from the shared plan:
		// verdicts are keyed by message identity, so the streams agree
		// across endpoints; only the counters are endpoint-local
		// (LocalWorld.FaultStats aggregates them).
		c.inj = faults.NewInjector(cfg.chaosPlan)
	}
	if cfg.fecCfg.Enabled() {
		c.fecTx = newFecSender(c)
	}
	if cfg.fecCfg.Enabled() || c.inj != nil {
		c.fecRx = newFecTracker(c, cfg.fecCfg.Enabled())
	}
	return c
}

// Now returns wall time since the endpoint was created.
func (c *Comm) Now() time.Duration { return time.Since(c.cfg.start) }

// Compute is a no-op: like the live runtime, real work is performed for
// real by the caller.
func (c *Comm) Compute(n int, kind comm.ComputeKind) {}

// Isend starts a non-blocking send. Messages at or below the eager limit
// ship their payload with the announcement and complete immediately;
// larger ones announce (RTS) and complete only after the receiver's grant
// pulls the payload across.
func (c *Comm) Isend(dst int, tag comm.Tag, msg comm.Msg) comm.Request {
	if dst < 0 || dst >= c.size {
		panic(fmt.Sprintf("nettransport: send to rank %d of %d", dst, c.size))
	}
	c.noteSend() // crash point: the rank may die initiating this send
	req := c.StartSend(dst, tag, msg.Size)
	st := comm.Status{Source: c.rank, Tag: tag, Msg: msg}
	if dst == c.rank {
		panic("nettransport: self-send (collectives never send to self)")
	}
	c.xidNext++
	xid := c.xidNext
	if msg.Size <= c.cfg.eagerLimit {
		// Eager: snapshot the payload (the sender may reuse its buffer as
		// soon as we return) into a pooled buffer the scheduler releases
		// after the frame hits the socket, and complete immediately. A dead
		// peer swallows the frame — eager sends never fail, mirroring
		// runtime.
		var payload []byte
		if msg.Data != nil {
			payload = comm.GetBuf(len(msg.Data))
			copy(payload, msg.Data)
		}
		meta := fecMeta{tag: tag, xid: xid, size: msg.Size, plen: len(payload),
			hasData: msg.Data != nil}
		switch {
		case c.fecTx != nil:
			// FEC framer owns the snapshot until the group resolves; each
			// transmission (including resends) ships its own wire copy.
			c.fecTx.send(dst, meta, payload)
		case c.inj != nil:
			c.transmitEager(dst, meta, payload, 0)
			comm.PutBuf(payload)
		default:
			hdr := encodeEagerHdr(frameEager, tag, xid, msg.Size, len(payload),
				msg.Data != nil, crc32.ChecksumIEEE(payload))
			c.w.Send(dst, frame.Out{Head: hdr, Body: payload, PoolBody: true})
		}
		req.Complete(st)
		return req
	}
	// Rendezvous: register the transfer, announce, and wait for the grant.
	// The user buffer is referenced — not copied — until the payload frame
	// has been written, which is exactly when the request completes.
	req.Msg = msg
	req.Xid = xid
	req.Tag = tag
	c.mu.Lock()
	if c.crash.Confirmed(dst) {
		// The detector already declared the peer dead: fail fast with the
		// same structured error an exhausted retry chain produces.
		c.mu.Unlock()
		req.Complete(comm.Status{Source: c.rank, Tag: tag,
			Err: &faults.TimeoutError{Rank: c.rank, Peer: dst, Tag: tag, Attempts: 1}})
		return req
	}
	c.sendPend[xid] = req
	c.mu.Unlock()
	hdr := encodeEagerHdr(frameRTS, tag, xid, msg.Size, 0, msg.Data != nil, 0)
	c.w.Send(dst, frame.Out{Head: hdr})
	return req
}

// onMatch pairs a receive with a matched envelope. Eager envelopes
// complete the receive immediately (they own their payload, delivered
// pooled straight off the read path); rendezvous envelopes park the
// receive as a pull and grant the sender.
func (c *Comm) onMatch(req *progress.Req, env *progress.Env, wasUnexpected bool) {
	if env.Err != nil {
		// A tombstoned FEC group member: the sender exhausted its resend
		// budget, so the matched receive fails with the structured loss.
		req.Complete(comm.Status{Source: env.Src, Tag: env.Tag, Err: env.Err})
		return
	}
	if !env.Rdv {
		msg, err := req.Land(env.Src, env.Tag, env.Msg)
		req.Complete(comm.Status{Source: env.Src, Tag: env.Tag, Msg: msg, Err: err})
		return
	}
	key := pullKey{src: env.Src, xid: env.Xid}
	c.mu.Lock()
	c.pulls[key] = &rdvPull{req: req, tag: env.Tag, size: env.Msg.Size, hasData: env.HasData}
	if c.crash.Down(env.Src) {
		// The sender is already gone; the grant would go nowhere. Fail the
		// receive through the same path its death notice would take.
		c.failPullLocked(key)
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()
	// A death confirmed between the unlock and this enqueue is still safe:
	// the confirm sweep saw the registered pull and failed it; the dead
	// queue drops the grant on the floor.
	c.w.Send(env.Src, frame.Out{Head: encodeCTS(env.Xid)})
}

// failPullLocked fails a parked rendezvous receive whose sender died;
// c.mu is held (completion takes the engine lock underneath it).
func (c *Comm) failPullLocked(key pullKey) {
	pl := c.pulls[key]
	if pl == nil {
		return
	}
	delete(c.pulls, key)
	pl.req.Complete(comm.Status{Source: key.src, Tag: pl.tag,
		Err: &faults.TimeoutError{Rank: c.rank, Peer: key.src, Tag: pl.tag, Attempts: 1}})
}

// onCTS resolves a clear-to-send grant: stream the payload. Runs on the
// I/O loop goroutine.
func (c *Comm) onCTS(src int, xid uint64) {
	c.mu.Lock()
	req := c.sendPend[xid]
	if req == nil {
		c.mu.Unlock()
		return // the send was already failed by the detector
	}
	delete(c.sendPend, xid)
	c.mu.Unlock()
	var payload []byte
	if req.Msg.Data != nil {
		payload = req.Msg.Data
	}
	st := comm.Status{Source: c.rank, Tag: req.Tag, Msg: req.Msg}
	c.w.Send(src, frame.Out{Head: encodeDataHdr(xid, len(payload)), Body: payload,
		Hook: sendDone(func(err error) {
			if err != nil {
				st = comm.Status{Source: c.rank, Tag: st.Tag,
					Err: &faults.TimeoutError{Rank: c.rank, Peer: src, Tag: st.Tag, Attempts: 1}}
			}
			req.Complete(st)
		})})
}

// sendDone completes a rendezvous send once its payload frame is on the
// wire (or failed to get there).
type sendDone func(err error)

func (f sendDone) Sent(err error) { f(err) }

// dataDest picks where a rendezvous payload frame of plen bytes from
// src is read to, once its fixed fields are in: straight into the
// matched receive's posted buffer (IrecvInto) when the payload fits,
// else a pooled buffer. A payload landing in a posted buffer claims its
// pull first — the I/O loop then owns the receive until the frame
// finishes (onData) or the connection dies under it (abortPull), so no
// death sweep can hand the buffer back to its owner mid-read. Runs on
// the I/O loop goroutine.
func (c *Comm) dataDest(cs *connState, plen int) []byte {
	key := pullKey{src: cs.rank, xid: cs.xid}
	c.mu.Lock()
	defer c.mu.Unlock()
	if pl := c.pulls[key]; pl != nil && pl.hasData && plen <= len(pl.req.Posted()) {
		delete(c.pulls, key)
		cs.pull = pl
		return pl.req.Posted()[:plen]
	}
	cs.pooled = true
	return comm.GetBuf(plen)
}

// abortPull returns a claimed pull whose payload frame was cut off by
// the connection's death to the pull table, failing it at once if the
// sender is already down (the death sweep that would have failed it
// may have run while it was claimed). Runs on the I/O loop goroutine.
func (c *Comm) abortPull(cs *connState) {
	pl := cs.pull
	if pl == nil {
		return
	}
	cs.pull = nil
	key := pullKey{src: cs.rank, xid: cs.xid}
	c.mu.Lock()
	c.pulls[key] = pl
	if c.crash.Down(cs.rank) {
		c.failPullLocked(key)
	}
	c.mu.Unlock()
}

// onData resolves a rendezvous payload frame. Runs on the I/O loop
// goroutine. A payload read into a posted buffer comes with its claimed
// pull; a pooled one is owned by the receiver from here on.
func (c *Comm) onData(cs *connState, payload []byte) {
	src := cs.rank
	if pl := cs.pull; pl != nil {
		cs.pull = nil
		pl.req.Complete(comm.Status{Source: src, Tag: pl.tag, Msg: comm.Msg{Data: payload, Size: pl.size}})
		return
	}
	key := pullKey{src: src, xid: cs.xid}
	c.mu.Lock()
	pl := c.pulls[key]
	if pl == nil {
		c.mu.Unlock()
		comm.PutBuf(payload)
		return
	}
	delete(c.pulls, key)
	c.mu.Unlock()
	msg := comm.Msg{Size: pl.size}
	if pl.hasData {
		if payload == nil {
			payload = []byte{} // zero-byte payload, not elided
		}
		msg.Data = payload
	} else {
		comm.PutBuf(payload)
	}
	// A plain receive owns the pooled copy; a posted buffer too short
	// for it fails the receive.
	msg, err := pl.req.Land(src, pl.tag, msg)
	pl.req.Complete(comm.Status{Source: src, Tag: pl.tag, Msg: msg, Err: err})
}

// Send performs a blocking send: for rendezvous-size messages it returns
// only once the receiver has matched and the payload is on the wire.
func (c *Comm) Send(dst int, tag comm.Tag, msg comm.Msg) {
	c.Wait(c.Isend(dst, tag, msg))
}
