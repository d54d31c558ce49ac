package fec

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"adapt/internal/comm"
	"adapt/internal/perf"
	"adapt/internal/pool"
)

const groupKind = "fec.Group"

// The group framer and decoder every substrate shares. The framer keeps
// one open group per directed link, closes it at K members or when its
// idle-flush timer fires, picks the parity count, encodes, and hands the
// sealed group to the substrate, which owns everything about moving the
// shards (wire frames, verdicts, acks, resends). Decode is the receiving
// half: surviving parity rebuilds the erased members. Time reaches the
// framer only through the injected after(d, fn) — a kernel event on the
// simulator, a timer goroutine on the live substrates.
//
// Groups recycle. A substrate done with a sealed group hands it back
// through Recycle, and the framer reissues it, with its member, shard,
// parity and decided slices, to a later group on any link. Each group's
// idle-flush handler is bound once, when the group is first allocated.
// A group takes two references when it opens: its owner's (the framer,
// then the substrate from seal until Recycle) and its armed idle
// flush's, dropped when the flush fires. The group is reissued only once
// both are gone, so a stale flush only ever finds its own, sealed group
// and can never seal a newer one. The free-list and the counts live
// under mu, because the live substrates share one framer across
// goroutines.

// Counters tallies one FEC layer's activity; each count also feeds the
// process-wide perf counters. Safe for concurrent use.
type Counters struct {
	encoded, reconstructed, groupsLost atomic.Uint64
}

// Stats snapshots the counters.
func (c *Counters) Stats() Stats {
	return Stats{ParityEncoded: c.encoded.Load(), Reconstructed: c.reconstructed.Load(),
		GroupsLost: c.groupsLost.Load()}
}

// GroupLost counts one group whose erasures outran its parity and fell
// back to the ARQ path.
func (c *Counters) GroupLost() {
	c.groupsLost.Add(1)
	perf.RecordFecGroupLost()
}

// Decode rebuilds a group's erased members from its surviving parity
// (parity[j] == nil is a lost shard). shards[i] is member i's payload
// (nil for an elided payload), missing lists the erased members, sizes
// their true lengths. It returns the data shards with every missing one
// replaced by a pooled decoded buffer owned by the caller, counting one
// reconstruction each — or nil, counting the group lost, when the
// erasures outrun the parity.
func (c *Counters) Decode(p Params, shards [][]byte, missing []int, parity [][]byte, sizes []int) [][]byte {
	data := present(shards)
	for _, i := range missing {
		data[i] = nil
	}
	have := 0
	for _, s := range parity {
		if s != nil {
			have++
		}
	}
	if !Recoverable(len(missing), have) || Reconstruct(p, data, parity, sizes) != nil {
		c.GroupLost()
		return nil
	}
	c.reconstructed.Add(uint64(len(missing)))
	for range missing {
		perf.RecordFecReconstructed()
	}
	return data
}

// present returns the codec's view of a group's payloads: an elided
// (nil) payload is an empty shard, not an erasure.
func present(shards [][]byte) [][]byte {
	return appendPresent(make([][]byte, 0, len(shards)), shards)
}

// appendPresent appends present(shards) to dst.
func appendPresent(dst, shards [][]byte) [][]byte {
	for _, s := range shards {
		if s == nil {
			s = []byte{}
		}
		dst = append(dst, s)
	}
	return dst
}

// Group is one erasure-coding group on a directed link.
type Group[M any] struct {
	ID       uint64
	Src, Dst int
	Members  []M
	Shards   [][]byte // framer-owned member payloads; nil = elided
	Params   Params   // set at seal
	Parity   [][]byte // pooled parity shards, set at seal; nil marks a lost one

	decided []bool // parity shards whose fate is known
	pending int    // parity shards still in flight

	data    [][]byte // encode input scratch, cleared after each encode
	flushFn func()   // the idle flush, bound once per group object
	ref     pool.Ref // the owner and the armed idle flush
}

// ParityFate settles parity shard j: arrived, or lost — its buffer is
// released and the slot cleared. Settling a shard twice panics.
func (g *Group[M]) ParityFate(j int, arrived bool) {
	if g.decided[j] {
		panic(fmt.Sprintf("fec: group %d parity %d resolved twice", g.ID, j))
	}
	g.decided[j] = true
	g.pending--
	if !arrived {
		comm.PutBuf(g.Parity[j])
		g.Parity[j] = nil
	}
}

// ParitySettled reports whether every parity shard's fate is known.
func (g *Group[M]) ParitySettled() bool { return g.pending == 0 }

// Release returns the group's shard and parity buffers to the pool.
func (g *Group[M]) Release() {
	for i, s := range g.Shards {
		if s != nil {
			comm.PutBuf(s)
			g.Shards[i] = nil
		}
	}
	for j, p := range g.Parity {
		if p != nil {
			comm.PutBuf(p)
			g.Parity[j] = nil
		}
	}
	g.Parity = g.Parity[:0]
}

// Framer groups a member stream per directed link. Safe for concurrent
// use; seal runs with no framer lock held.
type Framer[M any] struct {
	cfg   Config
	ctl   *Controller
	ctr   *Counters
	idle  time.Duration
	after func(d time.Duration, fn func())
	seal  func(g *Group[M])

	mu      sync.Mutex
	open    map[uint64]*Group[M]
	groups  pool.List[Group[M]]
	gid     uint64
	stopped bool
}

// NewFramer builds a framer for the (normalized) config. A group left
// open for idle is flushed — a trickling stream must not hold its losses
// past a fraction of the RTO. seal receives each closed group with its
// parity encoded.
func NewFramer[M any](cfg Config, ctr *Counters, idle time.Duration,
	after func(d time.Duration, fn func()), seal func(g *Group[M])) *Framer[M] {
	f := &Framer[M]{cfg: cfg, ctl: NewController(cfg), ctr: ctr, idle: idle, after: after,
		seal: seal, open: make(map[uint64]*Group[M])}
	f.groups = pool.List[Group[M]]{
		New: func() *Group[M] {
			k := cfg.K
			g := &Group[M]{Members: make([]M, 0, k), Shards: make([][]byte, 0, k), data: make([][]byte, 0, k)}
			g.flushFn = func() { f.flush(g) }
			return g
		},
		Reset: func(*Group[M]) {}, // Recycle empties a group, keeping its slices
	}
	return f
}

// Add enrolls member m on link src→dst, taking ownership of shard (nil
// for an elided payload). A new group arms its idle flush before the
// member joins; the K-th member seals the group inline. Returns false,
// leaving shard with the caller, once the framer is stopped.
func (f *Framer[M]) Add(src, dst int, m M, shard []byte) bool {
	key := linkKey(src, dst)
	f.mu.Lock()
	if f.stopped {
		f.mu.Unlock()
		return false
	}
	g := f.open[key]
	opened := g == nil
	if opened {
		g = f.openLocked(src, dst)
		f.open[key] = g
	}
	g.Members = append(g.Members, m)
	g.Shards = append(g.Shards, shard)
	full := len(g.Members) >= f.cfg.K
	if full {
		delete(f.open, key)
	}
	f.mu.Unlock()
	if opened {
		f.after(f.idle, g.flushFn)
	}
	if full {
		f.close(g)
	}
	return true
}

// openLocked issues the next group on link src→dst, recycled when one is
// free, holding its owner's and its idle flush's references. Caller
// holds f.mu.
func (f *Framer[M]) openLocked(src, dst int) *Group[M] {
	g := f.groups.Get()
	f.gid++
	g.ID, g.Src, g.Dst = f.gid, src, dst
	g.ref.Init(2)
	return g
}

// flush is g's idle timer: it drops the flush's reference, reissuing g
// if it was recycled meanwhile, and otherwise seals g if g is still its
// link's open group.
func (f *Framer[M]) flush(g *Group[M]) {
	f.mu.Lock()
	g.ref.Live(groupKind)
	if g.ref.Release(groupKind) {
		f.groups.Put(g)
		f.mu.Unlock()
		return
	}
	key := linkKey(g.Src, g.Dst)
	if f.stopped || f.open[key] != g {
		f.mu.Unlock()
		return
	}
	delete(f.open, key)
	f.mu.Unlock()
	f.close(g)
}

// Recycle releases a resolved group's buffers and drops the owner's
// reference. The caller must hold no reference to g, its members or its
// slices afterwards. A group whose idle flush is still armed is reissued
// only after that flush fires. Recycling a group twice panics.
func (f *Framer[M]) Recycle(g *Group[M]) {
	g.Release()
	clear(g.Members)
	g.Members, g.Shards = g.Members[:0], g.Shards[:0]
	g.decided, g.pending, g.Params = g.decided[:0], 0, Params{}
	f.mu.Lock()
	defer f.mu.Unlock()
	if g.ref.Release(groupKind) {
		f.groups.Put(g)
	}
}

// Outstanding counts the groups issued and not yet back for reuse: open,
// sealed and unresolved, or recycled with the idle flush still armed.
func (f *Framer[M]) Outstanding() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.groups.Outstanding()
}

// close picks the parity count, encodes, and seals.
func (f *Framer[M]) close(g *Group[M]) {
	k := len(g.Members)
	m := f.ctl.ChooseM(g.Src, g.Dst, k)
	g.Params = Params{K: k, M: m}
	g.data = appendPresent(g.data[:0], g.Shards)
	g.Parity = appendParity(g.Parity[:0], g.Params, g.data)
	clear(g.data)
	g.decided = g.decided[:0]
	for range m {
		g.decided = append(g.decided, false)
	}
	g.pending = m
	f.ctr.encoded.Add(uint64(m))
	perf.RecordFecEncoded(m)
	f.seal(g)
}

// Decode rebuilds the erased members of a group whose shards are all
// at hand (one address space: sender and receiver share the group).
func (f *Framer[M]) Decode(g *Group[M], missing []int) [][]byte {
	sizes := make([]int, len(g.Shards))
	for i, s := range g.Shards {
		sizes[i] = len(s)
	}
	return f.ctr.Decode(g.Params, g.Shards, missing, g.Parity, sizes)
}

// Observe feeds a resolved group's outcome to the redundancy controller:
// lostData members lost before repair plus every lost parity shard.
func (f *Framer[M]) Observe(g *Group[M], lostData int) {
	lost := lostData
	for _, p := range g.Parity {
		if p == nil {
			lost++
		}
	}
	f.ctl.Observe(g.Src, g.Dst, g.Params.K+g.Params.M, lost)
}

// Stop disables the framer and returns the groups still open; the
// caller releases them.
func (f *Framer[M]) Stop() []*Group[M] {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.stopped = true
	out := make([]*Group[M], 0, len(f.open))
	for key, g := range f.open {
		delete(f.open, key)
		out = append(out, g)
	}
	return out
}
