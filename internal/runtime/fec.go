package runtime

import (
	"adapt/internal/comm"
	"adapt/internal/fec"
	"adapt/internal/progress"
	"adapt/internal/trace"
)

// Forward error correction over the live runtime's eager segment
// stream: the shared group framer and decoder (internal/fec), timed by
// wall-clock timers, with the same send-time resolution trick the chaos
// transport uses: the first attempt's verdict is drawn when the segment
// is sent, so a lost member is known immediately and simply parked in
// its group instead of entering the retry walk. When the group closes
// (K members or the idle-flush timer) the parity shards draw their own
// single-attempt verdicts; erasures within the surviving parity are
// reconstructed — genuinely decoded through the codec, not copied from
// the sender's buffer — and delivered with no retransmit backoff spent.
// Erasures beyond the parity fall back to the ARQ walk from attempt 1,
// keeping the structured-TimeoutError path intact.

// WithFEC arms erasure coding over the eager segment stream. Requires
// WithFaults (FEC shadows the chaos delivery path); without a fault
// plan the option is inert.
func WithFEC(cfg fec.Config) Option {
	return func(w *World) { w.fecCfg = cfg.Normalized() }
}

// FECStats returns what the FEC layer did; zero when not enabled.
func (w *World) FECStats() fec.Stats { return w.fecStats.Stats() }

// fecMember is one eager segment enrolled in a group. Survivors were
// delivered at send time; lost members park their undelivered envelope
// until the group resolves.
type fecMember struct {
	d    *Comm
	env  *progress.Env
	size int
	lost bool
}

// fecSend carries one eager envelope under FEC: resolve the first
// attempt's verdict, deliver survivors immediately, park losses in the
// group. The framer keeps its own copy of every payload as the encode
// input.
func (c *Comm) fecSend(d *Comm, env *progress.Env, size int) {
	w := c.w
	v := w.inj.Message(c.rank, d.rank, env.Tag, env.Xid, 0, c.Now(), size)
	mem := &fecMember{d: d, env: env, size: size, lost: v.Drop || v.Corrupt}
	var shard []byte
	if env.Msg.Data != nil {
		shard = comm.GetBuf(len(env.Msg.Data))
		copy(shard, env.Msg.Data)
	}
	if mem.lost {
		c.traceFault(trace.FaultDrop, d.rank, env.Tag, size, env.Xid)
	} else {
		if v.Dup {
			dup := *env
			if dup.Msg.Data != nil {
				buf := comm.GetBuf(len(dup.Msg.Data))
				copy(buf, dup.Msg.Data)
				dup.Msg.Data = buf
			}
			deliverAfter(d, &dup, v.Extra+w.rec.RTO/2)
		}
		deliverAfter(d, env, v.Extra)
	}
	w.fec.Add(c.rank, d.rank, mem, shard)
}

// sealFEC draws each parity shard's one unacknowledged verdict, then
// either reconstructs the group's losses or hands them back to the
// retry walk.
func (w *World) sealFEC(g *fec.Group[*fecMember]) {
	defer w.fec.Recycle(g)
	src := w.ranks[g.Src]
	for j, shard := range g.Parity {
		ptag := comm.MakeTag(comm.KindFec, int(g.ID%comm.SeqWrap), j)
		pxid := src.nextXid(g.Dst)
		pv := w.inj.Message(g.Src, g.Dst, ptag, pxid, 0, src.Now(), len(shard))
		lost := pv.Drop || pv.Corrupt
		if lost {
			src.traceFault(trace.FaultDrop, g.Dst, ptag, len(shard), pxid)
		}
		g.ParityFate(j, !lost)
	}
	var missing []int
	for i, mem := range g.Members {
		if mem.lost {
			missing = append(missing, i)
		}
	}
	w.fec.Observe(g, len(missing))
	if len(missing) == 0 {
		return
	}
	if data := w.fec.Decode(g, missing); data != nil {
		for _, i := range missing {
			mem := g.Members[i]
			if mem.env.Msg.Data != nil {
				// Deliver the decoded bytes, not the sender's retained copy
				// — the codec's output is what a remote receiver would hold.
				comm.PutBuf(mem.env.Msg.Data)
				mem.env.Msg.Data = data[i]
			}
			deliverAfter(mem.d, mem.env, 0)
		}
		return
	}
	// ARQ backstop: attempt 0 is spent; resume the walk where a
	// retransmitting sender would be after its first timeout.
	for _, i := range missing {
		mem := g.Members[i]
		src.chaosWalk(mem.d, mem.env, mem.size, 1, w.rec.RetryDelay(0, mem.env.Xid))
	}
}
