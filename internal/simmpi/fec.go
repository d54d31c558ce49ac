package simmpi

import (
	"adapt/internal/comm"
	"adapt/internal/fec"
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

// fecMember is one eager transmission enrolled in a group.
type fecMember struct {
	g    *fecGroup // set at seal
	x    *xmit
	tag  comm.Tag
	msg  comm.Msg // original metadata (logical size, memory space)
	d    *Comm
	post uint64 // sender's PostID, for the causal trace edge
}

// fecGroup is a sealed group. One object serves both ends: the sender
// side launched its parity, the receiver side resolves arrivals and
// reconstructs.
type fecGroup struct {
	*fec.Group[*fecMember]
	w        *World
	resolved bool
}

// sealFEC flies each parity shard of a sealed group as one
// unacknowledged attempt under a KindFec tag.
func (w *World) sealFEC(fg *fec.Group[*fecMember]) {
	g := &fecGroup{Group: fg, w: w}
	for _, mem := range g.Members {
		mem.g = g
	}
	for j, buf := range g.Parity {
		j, buf := j, buf
		ptag := comm.MakeTag(comm.KindFec, int(g.ID%comm.SeqWrap), j)
		w.xmitSeq++
		pid := w.xmitSeq
		v := w.inj.Message(g.Src, g.Dst, ptag, pid, 0, w.K.Now(), len(buf))
		if v.Drop {
			w.traceFault(trace.FaultDrop, g.Src, g.Dst, ptag, len(buf), pid)
			g.parityFate(j, false)
			continue
		}
		w.K.Schedule(v.Extra, func() {
			w.Net.StartTransfer(g.Src, g.Dst, len(buf), comm.MemDefault, nil, func() {
				// Damaged (checksum-caught) or annihilated: a lost shard.
				g.parityFate(j, !v.Corrupt && !w.crash.Dead(g.Src) && !w.crash.Dead(g.Dst))
			})
		})
	}
	g.tryResolve()
}

// parityFate records parity shard j's outcome.
func (g *fecGroup) parityFate(j int, arrived bool) {
	g.ParityFate(j, arrived)
	g.tryResolve()
}

// arrived notes that the member's wire copy was delivered.
func (mem *fecMember) arrived() {
	if mem.g != nil {
		mem.g.tryResolve()
	}
}

// settled reports whether the member's first-attempt fate is known:
// delivered, failed, or lost in flight (verdict known at send time).
func (mem *fecMember) settled() bool {
	return mem.x.st.delivered || mem.x.st.failed || mem.x.firstLost
}

// tryResolve fires once every fate in the group is known: members
// delivered/lost/failed, parity shards arrived/lost. Within-parity
// erasures reconstruct and repair; beyond it the group is lost to the
// ARQ backstop (whose timers have been running all along).
func (g *fecGroup) tryResolve() {
	if g.resolved || !g.ParitySettled() {
		return
	}
	for _, mem := range g.Members {
		if !mem.settled() {
			return
		}
	}
	g.resolved = true
	w := g.w
	defer g.Release()
	var missing []int
	lost := 0
	for i, mem := range g.Members {
		if mem.x.firstLost {
			lost++
		}
		if !mem.x.st.delivered && !mem.x.st.failed {
			missing = append(missing, i)
		}
	}
	w.fec.Observe(g.Group, lost)
	if len(missing) == 0 {
		return
	}
	data := w.fec.Decode(g.Group, missing)
	if data == nil {
		return
	}
	for _, i := range missing {
		mem, decoded := g.Members[i], data[i]
		mem.x.repair(func() {
			del := mem.msg
			if mem.msg.Data != nil {
				del.Data = decoded // pooled; owned by the receiver from here
			}
			env := mem.d.NewEnv(g.Src, mem.tag, del, nil)
			env.PostID = mem.post
			mem.d.arrive(env)
		})
	}
}
