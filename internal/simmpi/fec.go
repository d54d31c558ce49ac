package simmpi

import (
	"adapt/internal/comm"
	"adapt/internal/fec"
	"adapt/internal/pool"
	"adapt/internal/trace"
)

// Forward error correction over the chaos transport's eager segment
// stream. Every eager transmission on a faulted world with FEC enabled
// is shadowed by a per-link group framer: the framer keeps its own copy
// of the payload, and once a group closes (K members, or the idle-flush
// timer) it encodes M parity shards and flies each across the fabric as
// a single unacknowledged attempt under a KindFec tag — parity is pure
// redundancy, it is never retransmitted. When the group's fates are all
// known (every member delivered, lost, or failed; every parity shard
// arrived or lost) and the erasures are within the surviving parity, the
// receiver-side reconstruction decodes the missing payloads and
// completes each lost transmission through xmit.repair: the segment is
// delivered exactly as if its wire copy had arrived (same envelope path,
// duplicate-suppressed against a late retransmit), and the repair-ack
// stops the sender's retransmit timer before it fires — loss within the
// parity budget costs no retransmit round trip.
//
// FEC composes with, never replaces, the Recovery machinery: the RTO
// timers stay armed throughout, so a group whose erasures outrun its
// parity (or whose parity is itself lost) falls back to per-message
// retransmission and, past the attempt budget, the structured
// TimeoutError path. The framer and decoder are the shared ones in
// internal/fec, timed by kernel events. The simulator is one address
// space, so sender framer and receiver reconstructor share one group
// object; the parity still crosses the simulated fabric and draws real
// fault verdicts.
//
// The group's members are the transmissions' own xmit records, so no
// member object exists apart from the record: enrolling a transmission
// takes a record reference that the group drops when it resolves. Each
// parity shard in flight is a pooled wire record, the same type that
// carries a transmission's wire copies. A resolved group unlinks its
// members first, so no later delivery can reach it, and then goes back
// to the framer (fec.Framer.Recycle) with its slices for the next group.

// EnableFEC arms erasure coding over the eager segment stream. Must be
// called after InstallFaults (FEC shadows the chaos transport) and
// before Spawn.
func (w *World) EnableFEC(cfg fec.Config) {
	if w.inj == nil {
		panic("simmpi: EnableFEC before InstallFaults")
	}
	cfg = cfg.Normalized()
	if !cfg.Enabled() {
		return
	}
	w.fec = fec.NewFramer(cfg, &w.fecStats, w.rec.RTO/4, w.K.Schedule, w.sealFEC)
}

// FECStats returns what the FEC layer did; zero when not enabled.
func (w *World) FECStats() fec.Stats { return w.fecStats.Stats() }

// wire is one copy in flight: a wire copy of a transmission's attempt
// (x set, n the attempt) or a parity shard (g set, n the shard index).
// Recycled through the World's free-list as soon as its arrival fires.
type wire struct {
	w       *World
	x       *xmit
	g       *fec.Group[*xmit]
	n       int
	corrupt bool

	startFn, arriveFn func()
}

// newWireList builds the World's wire free-list.
func newWireList(w *World) pool.List[wire] {
	return pool.List[wire]{
		New: func() *wire {
			cp := &wire{w: w}
			cp.startFn, cp.arriveFn = cp.start, cp.arrive
			return cp
		},
		Reset: func(cp *wire) { cp.x, cp.g = nil, nil },
	}
}

// start puts the copy on the fabric.
func (cp *wire) start() {
	if x := cp.x; x != nil {
		cp.w.Net.StartTransfer(x.src, x.dst, x.msg.Size, x.msg.Space, nil, cp.arriveFn)
		return
	}
	g := cp.g
	cp.w.Net.StartTransfer(g.Src, g.Dst, len(g.Parity[cp.n]), comm.MemDefault, nil, cp.arriveFn)
}

// arrive hands the copy to its transmission or settles the parity shard.
func (cp *wire) arrive() {
	w, x, g, n, corrupt := cp.w, cp.x, cp.g, cp.n, cp.corrupt
	w.wires.Put(cp)
	if x != nil {
		x.arrive(n, corrupt)
		return
	}
	// Damaged (checksum-caught) or annihilated: a lost shard.
	g.ParityFate(n, !corrupt && !w.crash.Dead(g.Src) && !w.crash.Dead(g.Dst))
	w.resolveFEC(g)
}

// sealFEC flies each parity shard of a sealed group as one
// unacknowledged attempt under a KindFec tag.
func (w *World) sealFEC(g *fec.Group[*xmit]) {
	for _, x := range g.Members {
		x.group = g
	}
	for j, buf := range g.Parity {
		ptag := comm.MakeTag(comm.KindFec, int(g.ID%comm.SeqWrap), j)
		w.xmitSeq++
		pid := w.xmitSeq
		v := w.inj.Message(g.Src, g.Dst, ptag, pid, 0, w.K.Now(), len(buf))
		if v.Drop {
			w.traceFault(trace.FaultDrop, g.Src, g.Dst, ptag, len(buf), pid)
			g.ParityFate(j, false)
			continue
		}
		cp := w.wires.Get()
		cp.g, cp.n, cp.corrupt = g, j, v.Corrupt
		w.K.Schedule(v.Extra, cp.startFn)
	}
	w.resolveFEC(g)
}

// settled reports whether the member's first-attempt fate is known:
// delivered, failed, or lost in flight (verdict known at send time).
func (x *xmit) settled() bool {
	return x.delivered || x.failed || x.firstLost
}

// resolveFEC acts once every fate in the group is known: members
// delivered/lost/failed, parity shards arrived/lost. Within-parity
// erasures reconstruct and repair; beyond it the group is lost to the
// ARQ backstop (whose timers have been running all along). The resolved
// group drops its member references and goes back to the framer.
func (w *World) resolveFEC(g *fec.Group[*xmit]) {
	if !g.ParitySettled() {
		return
	}
	for _, x := range g.Members {
		if !x.settled() {
			return
		}
	}
	var missing []int
	lost := 0
	for i, x := range g.Members {
		x.group = nil
		if x.firstLost {
			lost++
		}
		if !x.delivered && !x.failed {
			missing = append(missing, i)
		}
	}
	w.fec.Observe(g, lost)
	if len(missing) > 0 {
		if data := w.fec.Decode(g, missing); data != nil {
			for _, i := range missing {
				g.Members[i].repair(data[i])
			}
		}
	}
	for _, x := range g.Members {
		x.release()
	}
	w.fec.Recycle(g)
}

// repair completes the transmission out-of-band with its decoded
// payload (pooled; owned by the receiver from here): the message is
// delivered unless a wire copy arrived first — dedup holds — and a
// repair-ack travels back to stop the retransmit chain. The repair-ack
// is group control traffic and is not subject to per-message ack-loss
// verdicts; the per-attempt ack path keeps its own loss draws.
func (x *xmit) repair(decoded []byte) {
	w := x.w
	if x.failed || w.crash.Dead(x.src) || w.crash.Dead(x.dst) {
		return
	}
	if x.delivered {
		w.inj.NoteSuppressed()
	} else {
		x.delivered = true
		del := x.msg
		if del.Data != nil {
			del.Data = decoded
		}
		d := w.ranks[x.dst]
		env := d.NewEnv(x.src, x.tag, del, nil)
		env.PostID = x.req.PostID
		d.arrive(env)
	}
	x.ackBack()
}
