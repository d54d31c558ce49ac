package faults

import (
	"fmt"
	"sync"
	"time"

	"adapt/internal/perf"
	"adapt/internal/trace"
)

// The fail-stop plane every substrate shares: the crash schedule (which
// send initiation kills which rank) and the lease failure detector (lost
// → suspected at SuspectAfter → confirmed at ConfirmAfter). The plane
// does not know what a rank or a socket is; the substrate supplies the
// kill mechanics, the confirm action, and — through Clock — the only
// access to time. On the simulator Clock.After is a kernel event, so a
// seed replays the same detection schedule; on the live substrates it is
// a wall-clock timer.

// Clock is the plane's time seam: After runs fn once d has elapsed and
// Now stamps trace records.
type Clock struct {
	After func(d time.Duration, fn func())
	Now   func() time.Duration
}

// WallClock is the live substrates' Clock: timer goroutines, offsets
// from start.
func WallClock(start time.Time) Clock {
	return Clock{
		After: func(d time.Duration, fn func()) { time.AfterFunc(d, fn) },
		Now:   func() time.Duration { return time.Since(start) },
	}
}

// DetectorStats is a failure detector's activity.
type DetectorStats struct {
	Suspects uint64 // suspicion leases expired
	Confirms uint64 // deaths confirmed
	Repairs  uint64 // tree repairs triggered by confirmations
}

// The per-rank masks a Plane keeps.
const (
	maskDead      = iota // halted by the crash schedule
	maskLost             // handed to the detector (suspected or confirmed)
	maskConfirmed        // death confirmed by the detector
)

// Plane is one fail-stop plane over n ranks.
//
// The crash schedule: a crash@rank[:afterK] rule kills the rank at the
// instant it initiates its (K+1)-th send — a pure function of the rank's
// program order, so a plan kills at the same protocol step on every
// substrate.
//
// The lease detector: Lost starts a rank's leases; suspicion only
// counts, confirmation is final — the rank joins the confirmed mask, one
// tree repair is counted, and the substrate's confirm action runs (death
// notices, failing operations parked on the rank). Trace records go on
// pseudo-rank self (-1 for a world-level detector).
//
// A nil *Plane (no crash rules armed) reports nothing dead. Safe for
// concurrent use; confirm runs with no plane lock held.
type Plane struct {
	rec     Recovery
	clk     Clock
	self    int
	trace   func() *trace.Buffer
	confirm func(rank int)

	mu      sync.Mutex
	stopped bool
	after   map[int]int // rank → send initiations allowed before dying
	sends   map[int]int // rank → send initiations so far
	masks   [3][]bool
	stats   DetectorStats
}

// NewPlane arms crashes over an n-rank world with rec's detector leases.
// A rule naming a rank outside the world panics.
func NewPlane(n, self int, crashes []Crash, rec Recovery, clk Clock, tb func() *trace.Buffer, confirm func(rank int)) *Plane {
	p := &Plane{rec: rec, clk: clk, self: self, trace: tb, confirm: confirm,
		after: make(map[int]int, len(crashes)), sends: make(map[int]int, len(crashes))}
	for i := range p.masks {
		p.masks[i] = make([]bool, n)
	}
	for _, cr := range crashes {
		if cr.Rank >= n {
			panic(fmt.Sprintf("faults: crash rule for rank %d in a %d-rank world", cr.Rank, n))
		}
		p.after[cr.Rank] = cr.AfterSends
	}
	return p
}

// NoteSend counts one send initiation by rank and reports whether it is
// the rank's crash point; the rank is dead from then on and the caller
// must kill it.
func (p *Plane) NoteSend(rank int) bool {
	if p == nil {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	k, armed := p.after[rank]
	if !armed || p.masks[maskDead][rank] {
		return false
	}
	n := p.sends[rank]
	p.sends[rank]++
	if n < k {
		return false
	}
	p.masks[maskDead][rank] = true
	return true
}

// Lost reports rank gone and arms its suspicion and confirmation leases,
// in that order. Idempotent: it returns false when the rank was already
// lost or the plane is stopped.
func (p *Plane) Lost(rank int) bool {
	p.mu.Lock()
	if p.stopped || p.masks[maskLost][rank] {
		p.mu.Unlock()
		return false
	}
	p.masks[maskLost][rank] = true
	p.mu.Unlock()
	p.clk.After(p.rec.SuspectAfter, func() {
		if p.count(rank, false) {
			perf.RecordDetectorSuspect()
			p.record(trace.Suspect, rank)
		}
	})
	p.clk.After(p.rec.ConfirmAfter, func() {
		if !p.count(rank, true) {
			return
		}
		perf.RecordDetectorConfirm()
		perf.RecordTreeRepair()
		p.record(trace.Confirm, rank)
		p.record(trace.Repair, rank)
		if p.confirm != nil {
			p.confirm(rank)
		}
	})
	return true
}

// count settles one expired lease and reports whether it took effect.
// A confirmation also counts the tree repair it triggers.
func (p *Plane) count(rank int, confirm bool) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	switch {
	case p.stopped:
		return false
	case !confirm:
		p.stats.Suspects++
	case p.masks[maskConfirmed][rank]:
		return false
	default:
		p.masks[maskConfirmed][rank] = true
		p.stats.Confirms++
		p.stats.Repairs++
	}
	return true
}

func (p *Plane) record(kind trace.Kind, rank int) {
	if p.trace == nil {
		return
	}
	if tb := p.trace(); tb != nil {
		tb.Add(trace.Record{At: p.clk.Now(), Rank: p.self, Kind: kind, Peer: rank})
	}
}

// Stop disarms the detector: later losses and pending leases are
// ignored (clean shutdown, or the owner's own crash).
func (p *Plane) Stop() {
	p.mu.Lock()
	p.stopped = true
	p.mu.Unlock()
}

// Dead reports whether rank has halted; Down, whether it has been lost;
// Confirmed, whether its death is confirmed.
func (p *Plane) Dead(rank int) bool      { return p.has(maskDead, rank) }
func (p *Plane) Down(rank int) bool      { return p.has(maskLost, rank) }
func (p *Plane) Confirmed(rank int) bool { return p.has(maskConfirmed, rank) }

func (p *Plane) has(m, rank int) bool {
	if p == nil {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.masks[m][rank]
}

// DeadMask and ConfirmedMask return fresh n-rank masks.
func (p *Plane) DeadMask(n int) []bool      { return p.mask(maskDead, n) }
func (p *Plane) ConfirmedMask(n int) []bool { return p.mask(maskConfirmed, n) }

func (p *Plane) mask(m, n int) []bool {
	out := make([]bool, n)
	if p != nil {
		p.mu.Lock()
		copy(out, p.masks[m])
		p.mu.Unlock()
	}
	return out
}

// Stats returns the detector counters (zero for a nil plane).
func (p *Plane) Stats() DetectorStats {
	if p == nil {
		return DetectorStats{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}
