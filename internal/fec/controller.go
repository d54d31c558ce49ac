package fec

import (
	"math"
	"sync"

	"adapt/internal/metrics"
)

// Config tunes the transports' FEC layer.
type Config struct {
	// K is the target group size: the framer closes a group after K data
	// segments (or earlier, on its idle-flush timer). Default 4.
	K int
	// M fixes the parity count per group. Zero selects the adaptive
	// controller: per-link observed loss chooses m within the budget.
	M int
	// MaxM caps adaptive parity per group. Default 4.
	MaxM int
	// Budget caps adaptive parity as a fraction of the group size
	// (bandwidth overhead bound). Default 0.5 — at most one parity shard
	// per two data shards.
	Budget float64
}

// Enabled reports whether the config asks for FEC at all.
func (c Config) Enabled() bool { return c.K > 0 }

// Normalized fills zero fields with defaults (K is left alone: a zero K
// means "FEC off").
func (c Config) Normalized() Config {
	if c.MaxM <= 0 {
		c.MaxM = 4
	}
	if c.Budget <= 0 {
		c.Budget = 0.5
	}
	if c.M > c.MaxM {
		c.MaxM = c.M
	}
	return c
}

// Stats counts what a substrate's FEC layer did: a snapshot of its
// Counters. Each world or endpoint keeps its own (the process-global
// perf counters aggregate across worlds and are useless under parallel
// tests).
type Stats struct {
	// ParityEncoded counts parity shards encoded and sent.
	ParityEncoded uint64
	// Reconstructed counts data segments rebuilt from surviving parity —
	// losses that never cost a retransmit round trip.
	Reconstructed uint64
	// GroupsLost counts groups whose erasures outran their parity and
	// fell back to the ARQ/retransmit path.
	GroupsLost uint64
}

// Controller is the adaptive redundancy controller: it tracks an EWMA
// of per-link observed loss (fed by the transports' fault counters —
// drop verdicts, CRC failures, NACKed shards — and ack gaps) and picks
// the parity count for the next group on that link. Deterministic given
// the observation sequence; safe for concurrent use (the live runtime
// observes from many sender goroutines).
type Controller struct {
	cfg Config

	mu    sync.Mutex
	links map[uint64]float64 // directed link -> loss EWMA
}

// NewController builds a controller for the (normalized) config.
func NewController(cfg Config) *Controller {
	return &Controller{cfg: cfg.Normalized(), links: make(map[uint64]float64)}
}

func linkKey(src, dst int) uint64 {
	return uint64(uint32(src))<<32 | uint64(uint32(dst))
}

// ewmaAlpha weighs each group observation. High enough that a lossy
// phase lifts m within a few groups, low enough that one unlucky group
// does not slam the link to max parity.
const ewmaAlpha = 0.25

// Observe feeds one group outcome on the src→dst link: sent shards
// (data + parity) and how many were lost before FEC repair.
func (ct *Controller) Observe(src, dst int, sent, lost int) {
	if sent <= 0 {
		return
	}
	rate := float64(lost) / float64(sent)
	k := linkKey(src, dst)
	ct.mu.Lock()
	old, seen := ct.links[k]
	if !seen {
		ct.links[k] = rate
	} else {
		ct.links[k] = old + ewmaAlpha*(rate-old)
	}
	ct.mu.Unlock()
}

// Loss returns the link's current loss estimate (0 when unobserved).
func (ct *Controller) Loss(src, dst int) float64 {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	return ct.links[linkKey(src, dst)]
}

// ChooseM picks the parity count for a k-shard group on src→dst: the
// fixed M when configured, otherwise enough parity to cover twice the
// observed per-group expected loss (headroom against burstiness),
// clamped to [1, min(MaxM, budget·k)] — at least one parity shard, and
// never past the bandwidth budget.
func (ct *Controller) ChooseM(src, dst, k int) int {
	if ct.cfg.M > 0 {
		if metrics.Enabled() {
			metrics.RecordLink(src, dst, ct.Loss(src, dst), ct.cfg.M)
		}
		return ct.cfg.M
	}
	loss := ct.Loss(src, dst)
	m := int(math.Ceil(2 * loss * float64(k)))
	if m < 1 {
		m = 1
	}
	cap := ct.cfg.MaxM
	if b := int(math.Round(ct.cfg.Budget * float64(k))); b < cap {
		cap = b
	}
	if cap < 1 {
		cap = 1
	}
	if m > cap {
		m = cap
	}
	// Publish the choice to the live telemetry plane: /statusz renders
	// the per-link loss EWMA and chosen parity while the run is hot.
	metrics.RecordLink(src, dst, loss, m)
	return m
}
