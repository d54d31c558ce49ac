// Package faults is the deterministic fault-injection layer for the
// message transports. A Plan is a seeded set of per-link / per-rank /
// global rules — drop, duplicate, delay spike, reorder jitter, and
// permanent link degradation — and an Injector turns the plan into
// per-message Verdicts.
//
// Determinism: a verdict is a pure function of (seed, rule, src, dst,
// tag, message id, attempt). It does not depend on wall time, event
// interleaving, or how many other links are faulted, so the same seed
// reproduces the same fault schedule whether worlds run serially or on
// parallel workers (adapt bench -j N), and a retransmitted message draws
// a fresh, but reproducible, verdict per attempt.
//
// Recovery describes the ack/retry machinery the transports use to
// survive a plan: per-message retransmit timeouts with exponential
// backoff, bounded by a maximum attempt count. When attempts run out the
// transport fails the operation with a structured *TimeoutError naming
// the edge (rank, peer), the wire tag, and therefore the collective
// kind, sequence and lost segment.
package faults

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"adapt/internal/comm"
	"adapt/internal/metrics"
	"adapt/internal/perf"
)

// ScopeKind selects which traffic a rule applies to.
type ScopeKind uint8

const (
	// ScopeAll matches every message.
	ScopeAll ScopeKind = iota
	// ScopeRank matches messages sent or received by rank A.
	ScopeRank
	// ScopeLink matches messages on the directed link A→B.
	ScopeLink
)

// Scope is a rule's traffic selector.
type Scope struct {
	Kind ScopeKind
	A, B int
}

// All selects every message.
func All() Scope { return Scope{Kind: ScopeAll} }

// Rank selects messages touching rank r (as sender or receiver).
func Rank(r int) Scope { return Scope{Kind: ScopeRank, A: r} }

// Link selects messages on the directed link src→dst.
func Link(src, dst int) Scope { return Scope{Kind: ScopeLink, A: src, B: dst} }

// Matches reports whether a src→dst message falls under the scope.
func (s Scope) Matches(src, dst int) bool {
	switch s.Kind {
	case ScopeAll:
		return true
	case ScopeRank:
		return src == s.A || dst == s.A
	case ScopeLink:
		return src == s.A && dst == s.B
	}
	return false
}

func (s Scope) String() string {
	switch s.Kind {
	case ScopeAll:
		return "all"
	case ScopeRank:
		return fmt.Sprintf("rank %d", s.A)
	case ScopeLink:
		return fmt.Sprintf("link %d->%d", s.A, s.B)
	}
	return fmt.Sprintf("scope(%d)", uint8(s.Kind))
}

// Rule is one fault law over the traffic its Scope selects. All matching
// rules apply to a message: drops and duplicates OR together, delays
// add. The zero effects are a no-op rule.
type Rule struct {
	Scope Scope

	// DropProb is the per-attempt probability the message is lost in
	// flight (1 = black hole; retransmissions draw fresh verdicts).
	DropProb float64
	// DupProb is the probability a second copy of the message is
	// injected (the receiver's dedup layer must suppress it).
	DupProb float64
	// CorruptProb is the per-attempt probability the payload is damaged
	// in flight (seeded bit-flips). The wire transport detects this via
	// the frame CRC and treats the frame as a drop — feeding FEC
	// reconstruction — instead of delivering garbage; the in-process
	// substrates model detection directly, so a corrupted attempt is a
	// counted, distinguishable flavor of loss.
	CorruptProb float64
	// DelayProb gates a fixed Delay spike added to the message's flight
	// time. A Delay with zero DelayProb is treated as always-on.
	DelayProb float64
	Delay     time.Duration
	// Jitter adds a uniform extra delay in [0, Jitter) to every matching
	// message — the reordering knob: two back-to-back segments on the
	// same link draw different jitters and can arrive swapped.
	Jitter time.Duration
	// After activates the rule only from this virtual time on; combined
	// with Delay/Jitter/SlowBw it models permanent link degradation that
	// sets in mid-run. Zero means always active.
	After time.Duration
	// SlowBw, when positive, charges an extra size/SlowBw serialization
	// per message — a degraded link's lost bandwidth (bytes/second).
	SlowBw float64
}

// Crash is a fail-stop rank failure: the rank halts forever the moment
// it initiates its (AfterSends+1)-th point-to-point send (Isend, Ssend
// or a commit fan-out all count as initiations). Counting send
// initiations rather than virtual time makes the crash point a pure
// function of the rank's own program order, so the same plan kills the
// rank at the same protocol step on both substrates and at any -j.
type Crash struct {
	Rank       int
	AfterSends int
}

// Plan is a seeded fault schedule: the rule set plus the seed that fixes
// every probabilistic decision, plus the deterministic crash schedule.
type Plan struct {
	Seed    int64
	Rules   []Rule
	Crashes []Crash
}

// Enabled reports whether the plan can inject anything at all.
func (p Plan) Enabled() bool {
	if len(p.Crashes) > 0 {
		return true
	}
	for _, r := range p.Rules {
		if r.DropProb > 0 || r.DupProb > 0 || r.CorruptProb > 0 || r.Delay > 0 || r.Jitter > 0 || r.SlowBw > 0 {
			return true
		}
	}
	return false
}

// CrashAt returns the crash schedule for rank r, if any.
func (p Plan) CrashAt(r int) (afterSends int, ok bool) {
	for _, cr := range p.Crashes {
		if cr.Rank == r {
			return cr.AfterSends, true
		}
	}
	return 0, false
}

// Validate rejects out-of-range probabilities and negative durations.
func (p Plan) Validate() error {
	seenCrash := map[int]bool{}
	for i, cr := range p.Crashes {
		if cr.Rank < 0 {
			return fmt.Errorf("faults: crash %d: negative rank %d", i, cr.Rank)
		}
		if cr.AfterSends < 0 {
			return fmt.Errorf("faults: crash %d (rank %d): negative send count %d", i, cr.Rank, cr.AfterSends)
		}
		if seenCrash[cr.Rank] {
			return fmt.Errorf("faults: rank %d crashed twice (duplicate crash rule)", cr.Rank)
		}
		seenCrash[cr.Rank] = true
	}
	for i, r := range p.Rules {
		for _, pr := range []struct {
			name string
			v    float64
		}{{"drop", r.DropProb}, {"dup", r.DupProb}, {"corrupt", r.CorruptProb}, {"delay", r.DelayProb}} {
			if pr.v < 0 || pr.v > 1 {
				return fmt.Errorf("faults: rule %d (%s): %s probability %g outside [0,1]", i, r.Scope, pr.name, pr.v)
			}
		}
		if r.Delay < 0 || r.Jitter < 0 || r.After < 0 {
			return fmt.Errorf("faults: rule %d (%s): negative duration", i, r.Scope)
		}
		if r.SlowBw < 0 {
			return fmt.Errorf("faults: rule %d (%s): negative slow bandwidth", i, r.Scope)
		}
	}
	return nil
}

// Recovery tunes the transports' ack/retry machinery.
type Recovery struct {
	// RTO is the base retransmit timeout: how long the sender waits for
	// an acknowledgement before re-sending (or, out of attempts, failing).
	RTO time.Duration
	// Backoff multiplies the timeout per retry (exponential backoff).
	Backoff float64
	// MaxAttempts is the total number of transmission attempts per
	// message; 1 disables retries (first unacknowledged loss fails).
	MaxAttempts int

	// SuspectAfter is the failure detector's suspicion lease: how long a
	// rank may be silent past its crash before the detector suspects it.
	// Suspicion is observable only in the detector counters — it commits
	// nothing.
	SuspectAfter time.Duration
	// ConfirmAfter is the confirmation lease: once it expires the death
	// is final, the repaired tree takes effect, and every surviving rank
	// receives a death notice. Must exceed SuspectAfter.
	ConfirmAfter time.Duration

	// FullJitter spreads the retransmit backoff: instead of the fixed
	// Timeout(attempt), each armed retry timer draws uniformly from
	// [RTO, Timeout(attempt)] — the full-jitter strategy floored at one
	// base RTO so a sender never retransmits before an ack could
	// possibly have returned. After a burst drop hits many senders at
	// once, their retransmissions desynchronize instead of re-colliding
	// every backoff epoch. Deterministic: the draw is a pure function of
	// (JitterSeed, transmission id, attempt), so the simulator replays
	// the same schedule for a given seed.
	FullJitter bool
	// JitterSeed seeds the full-jitter draws (0 is a valid seed).
	JitterSeed int64
}

// DefaultRecovery is the standard tuning: 200µs base timeout, doubling
// per retry, up to 10 attempts — enough to push per-message failure
// probability into the noise for any loss rate below ~50%. The detector
// leases are 8×/16× the base timeout: long enough that retransmission
// absorbs ordinary loss without a false suspicion, short enough that a
// crash is confirmed well before any retry budget runs dry.
func DefaultRecovery() Recovery {
	rto := 200 * time.Microsecond
	return Recovery{RTO: rto, Backoff: 2, MaxAttempts: 10,
		SuspectAfter: 8 * rto, ConfirmAfter: 16 * rto}
}

// NoRecovery disables retries: a single unacknowledged attempt produces
// a TimeoutError after one RTO. Used to prove failures are structured
// and bounded rather than hangs.
func NoRecovery() Recovery {
	r := DefaultRecovery()
	r.MaxAttempts = 1
	return r
}

// Normalized fills zero fields with the defaults. The detector leases
// scale with the (possibly overridden) RTO when left zero.
func (r Recovery) Normalized() Recovery {
	d := DefaultRecovery()
	if r.RTO <= 0 {
		r.RTO = d.RTO
	}
	if r.Backoff < 1 {
		r.Backoff = d.Backoff
	}
	if r.MaxAttempts <= 0 {
		r.MaxAttempts = d.MaxAttempts
	}
	if r.SuspectAfter <= 0 {
		r.SuspectAfter = 8 * r.RTO
	}
	if r.ConfirmAfter <= r.SuspectAfter {
		r.ConfirmAfter = 2 * r.SuspectAfter
	}
	return r
}

// Timeout returns the retransmit timeout armed after the given attempt
// (0-based), with the backoff applied and capped at 64× the base so a
// deep retry chain stays inside bounded sim time.
func (r Recovery) Timeout(attempt int) time.Duration {
	t := float64(r.RTO)
	for i := 0; i < attempt; i++ {
		t *= r.Backoff
		if t >= 64*float64(r.RTO) {
			return 64 * r.RTO
		}
	}
	return time.Duration(t)
}

// RetryDelay returns the wait armed after the given attempt for the
// transmission with the given id: the plain capped-exponential
// Timeout(attempt) normally, or a seeded full-jitter draw from
// [RTO, Timeout(attempt)] when FullJitter is on. Attempt 0's window is
// degenerate ([RTO, RTO]), so the initial ack wait is never shortened.
func (r Recovery) RetryDelay(attempt int, id uint64) time.Duration {
	t := r.Timeout(attempt)
	if r.FullJitter && t > r.RTO {
		u := jitterUniform(r.JitterSeed, id, attempt)
		t = r.RTO + time.Duration(u*float64(t-r.RTO))
	}
	// Attempt 0 is the initial ack wait; attempt > 0 means the recovery
	// machinery is actually retransmitting — the live-telemetry signal
	// for "how hard is ARQ working right now". Determinism is untouched:
	// the delay itself never depends on the telemetry gate.
	if attempt > 0 {
		mRetryAttempt.Observe(uint64(attempt))
		mRetryDelay.ObserveDuration(t)
	}
	return t
}

// RTO/retry telemetry (DESIGN.md §15): the per-window rate and attempt
// distribution of armed retransmissions, across every substrate that
// drives recovery through RetryDelay.
var (
	mRetryAttempt = metrics.NewHistogram("adapt_fault_retry_attempt",
		"attempt number at each armed retransmission (1 = first retry)")
	mRetryDelay = metrics.NewHistogram("adapt_fault_retry_delay_ns",
		"backoff delay armed before each retransmission")
)

// jitterUniform draws a deterministic value in [0,1) from the retry's
// identity — same construction as Injector.uniform, distinct domain.
func jitterUniform(seed int64, id uint64, attempt int) float64 {
	h := fnv.New64a()
	var buf [25]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(uint64(seed) >> (8 * i))
		buf[8+i] = byte(id >> (8 * i))
		buf[16+i] = byte(uint64(attempt) >> (8 * i))
	}
	buf[24] = 'J'
	h.Write(buf[:])
	return float64(h.Sum64()&((1<<53)-1)) / (1 << 53)
}

// TimeoutError reports an unrecoverable message loss: every attempt went
// unacknowledged. It names the tree edge (Rank→Peer), the wire tag —
// and through it the collective kind, operation sequence, and segment —
// plus how long and how hard the transport tried.
type TimeoutError struct {
	Rank, Peer int
	Tag        comm.Tag
	Attempts   int
	Elapsed    time.Duration
}

// Segment returns the lost pipeline segment index.
func (e *TimeoutError) Segment() int { return e.Tag.Seg() }

func (e *TimeoutError) Error() string {
	return fmt.Sprintf("faults: rank %d -> %d: %s seq %d segment %d lost: %d attempts unacknowledged over %v",
		e.Rank, e.Peer, e.Tag.Kind(), e.Tag.Seq(), e.Tag.Seg(), e.Attempts, e.Elapsed)
}

// RankFailedError reports that a collective cannot complete on the
// survivor set because a rank whose role is irreplaceable — the root —
// was confirmed dead. Survivors return it instead of hanging.
type RankFailedError struct {
	Rank int           // the confirmed-dead rank
	Kind comm.CollKind // the collective that depended on it
	Seq  int           // its operation sequence number
}

func (e *RankFailedError) Error() string {
	return fmt.Sprintf("faults: rank %d confirmed dead: %s seq %d cannot complete on the survivor set",
		e.Rank, e.Kind, e.Seq)
}

// Verdict is the injector's decision for one transmission attempt.
type Verdict struct {
	// Drop: the attempt vanishes in flight.
	Drop bool
	// Dup: a second copy is injected alongside the first.
	Dup bool
	// Corrupt: the attempt arrives with flipped payload bits. The wire
	// transport delivers the damaged frame and lets the CRC catch it;
	// the in-process substrates treat it as a detected loss directly.
	Corrupt bool
	// Extra is added latency (spikes, jitter, degradation).
	Extra time.Duration
}

// Stats counts what an injector (and the recovery machinery feeding it)
// did. Deterministic per world for a given seed.
type Stats struct {
	Drops      uint64 // attempts lost in flight (incl. lost acks)
	Dups       uint64 // duplicate copies injected
	Corrupts   uint64 // attempts damaged in flight (detected, not delivered)
	Delays     uint64 // messages that drew extra latency
	Retries    uint64 // retransmissions performed
	Timeouts   uint64 // messages failed after exhausting attempts
	Suppressed uint64 // duplicate arrivals discarded by the receiver
}

// Total returns the number of injected faults (not counting recovery
// actions).
func (s Stats) Total() uint64 { return s.Drops + s.Dups + s.Corrupts + s.Delays }

func (s Stats) String() string {
	return fmt.Sprintf("drops %d, dups %d, corrupts %d, delays %d, retries %d, timeouts %d, suppressed %d",
		s.Drops, s.Dups, s.Corrupts, s.Delays, s.Retries, s.Timeouts, s.Suppressed)
}

// Injector evaluates a Plan. Safe for concurrent use (the live runtime
// calls it from many rank goroutines); verdicts are pure functions, only
// the stats counters and the failure ledger are shared state.
type Injector struct {
	plan Plan

	failMu   sync.Mutex
	failures []*TimeoutError

	drops      atomic.Uint64
	dups       atomic.Uint64
	corrupts   atomic.Uint64
	delays     atomic.Uint64
	retries    atomic.Uint64
	timeouts   atomic.Uint64
	suppressed atomic.Uint64
}

// NewInjector builds an injector for the plan. The plan must Validate.
func NewInjector(p Plan) *Injector {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return &Injector{plan: p}
}

// Plan returns the installed plan.
func (in *Injector) Plan() Plan { return in.plan }

// uniform draws a deterministic value in [0,1) from the decision's
// identity: seed, rule index, decision salt, and message coordinates.
func (in *Injector) uniform(rule int, salt byte, src, dst int, tag comm.Tag, id uint64, attempt int) float64 {
	h := fnv.New64a()
	var buf [41]byte
	le := func(off int, v uint64) {
		for i := 0; i < 8; i++ {
			buf[off+i] = byte(v >> (8 * i))
		}
	}
	le(0, uint64(in.plan.Seed))
	le(8, uint64(src))
	le(16, uint64(dst))
	le(24, uint64(tag))
	le(32, id)
	buf[40] = salt
	h.Write(buf[:])
	var tail [9]byte
	le2 := func(off int, v uint64) {
		for i := 0; i < 8; i++ {
			tail[off+i] = byte(v >> (8 * i))
		}
	}
	le2(0, uint64(attempt))
	tail[8] = byte(rule)
	h.Write(tail[:])
	return float64(h.Sum64()&((1<<53)-1)) / (1 << 53)
}

// Message returns the verdict for one transmission attempt of a src→dst
// message. now is the current virtual (or wall) time, used only for
// After-gated rules; size feeds degraded-bandwidth charges.
func (in *Injector) Message(src, dst int, tag comm.Tag, id uint64, attempt int, now time.Duration, size int) Verdict {
	var v Verdict
	for i, r := range in.plan.Rules {
		if !r.Scope.Matches(src, dst) || now < r.After {
			continue
		}
		if r.DropProb > 0 && in.uniform(i, 'd', src, dst, tag, id, attempt) < r.DropProb {
			v.Drop = true
		}
		if r.DupProb > 0 && in.uniform(i, '2', src, dst, tag, id, attempt) < r.DupProb {
			v.Dup = true
		}
		if r.CorruptProb > 0 && in.uniform(i, 'c', src, dst, tag, id, attempt) < r.CorruptProb {
			v.Corrupt = true
		}
		if r.Delay > 0 && (r.DelayProb == 0 || in.uniform(i, 's', src, dst, tag, id, attempt) < r.DelayProb) {
			v.Extra += r.Delay
		}
		if r.Jitter > 0 {
			v.Extra += time.Duration(in.uniform(i, 'j', src, dst, tag, id, attempt) * float64(r.Jitter))
		}
		if r.SlowBw > 0 {
			v.Extra += time.Duration(float64(size) / r.SlowBw * float64(time.Second))
		}
	}
	if v.Drop {
		in.drops.Add(1)
		perf.RecordFaultDrop()
		// A dropped attempt never materializes, so its dup/delay are moot.
		v.Dup = false
		v.Corrupt = false
		v.Extra = 0
		return v
	}
	if v.Corrupt {
		in.corrupts.Add(1)
		perf.RecordFaultCorrupt()
		// The damaged copy still flies (keeping Extra) but is discarded
		// on arrival; duplicating it would just be a second discard.
		v.Dup = false
	}
	if v.Dup {
		in.dups.Add(1)
		perf.RecordFaultDup()
	}
	if v.Extra > 0 {
		in.delays.Add(1)
		perf.RecordFaultDelay()
	}
	return v
}

// AckDrop decides whether the acknowledgement travelling src→dst (the
// reverse of the data link) is lost. Drop rules apply directly; corrupt
// rules apply too — a damaged ack fails its checksum and is discarded,
// which is indistinguishable from loss to the waiting sender.
func (in *Injector) AckDrop(src, dst int, tag comm.Tag, id uint64, attempt int, now time.Duration) bool {
	for i, r := range in.plan.Rules {
		if !r.Scope.Matches(src, dst) || now < r.After {
			continue
		}
		if r.DropProb > 0 && in.uniform(i, 'a', src, dst, tag, id, attempt) < r.DropProb {
			in.drops.Add(1)
			perf.RecordFaultDrop()
			return true
		}
		if r.CorruptProb > 0 && in.uniform(i, 'k', src, dst, tag, id, attempt) < r.CorruptProb {
			in.corrupts.Add(1)
			perf.RecordFaultCorrupt()
			return true
		}
	}
	return false
}

// NoteRetry records one retransmission.
func (in *Injector) NoteRetry() {
	in.retries.Add(1)
	perf.RecordFaultRetry()
}

// NoteTimeout records one message failed after exhausting its attempts.
func (in *Injector) NoteTimeout() {
	in.timeouts.Add(1)
	perf.RecordFaultTimeout()
}

// Fail records one operation that exhausted its attempt budget: the
// timeout is counted and err appended to the failure ledger, in call
// order (virtual-time order on the single-threaded simulator).
func (in *Injector) Fail(err *TimeoutError) {
	in.NoteTimeout()
	in.failMu.Lock()
	in.failures = append(in.failures, err)
	in.failMu.Unlock()
}

// Failures returns a copy of the failure ledger (nil for a nil
// injector: no plan installed).
func (in *Injector) Failures() []*TimeoutError {
	if in == nil {
		return nil
	}
	in.failMu.Lock()
	defer in.failMu.Unlock()
	return append([]*TimeoutError(nil), in.failures...)
}

// NoteSuppressed records one duplicate arrival discarded by dedup.
func (in *Injector) NoteSuppressed() {
	in.suppressed.Add(1)
	perf.RecordFaultSuppressed()
}

// Stats returns the injector's counters (zero for a nil injector: no
// plan installed).
func (in *Injector) Stats() Stats {
	if in == nil {
		return Stats{}
	}
	return Stats{
		Drops:      in.drops.Load(),
		Dups:       in.dups.Load(),
		Corrupts:   in.corrupts.Load(),
		Delays:     in.delays.Load(),
		Retries:    in.retries.Load(),
		Timeouts:   in.timeouts.Load(),
		Suppressed: in.suppressed.Load(),
	}
}

// RandomPlan generates a seeded random plan for property-based testing:
// a handful of rules over a world of n ranks with probabilities bounded
// so that DefaultRecovery still converges (drop ≤ 0.35 per attempt).
// The plan's Seed is drawn from rng too, so the whole schedule is a
// function of the generator's state.
func RandomPlan(rng *rand.Rand, n int) Plan {
	p := Plan{Seed: rng.Int63()}
	rules := 1 + rng.Intn(4)
	for i := 0; i < rules; i++ {
		var sc Scope
		switch rng.Intn(3) {
		case 0:
			sc = All()
		case 1:
			sc = Rank(rng.Intn(n))
		default:
			sc = Link(rng.Intn(n), rng.Intn(n))
		}
		r := Rule{Scope: sc}
		if rng.Intn(2) == 0 {
			r.DropProb = 0.35 * rng.Float64()
		}
		if rng.Intn(2) == 0 {
			r.DupProb = 0.4 * rng.Float64()
		}
		if rng.Intn(3) == 0 {
			// Corruption is loss too: bound drop+corrupt together so the
			// default retry budget still converges.
			r.CorruptProb = (0.35 - r.DropProb) * rng.Float64()
		}
		if rng.Intn(2) == 0 {
			r.Delay = time.Duration(rng.Intn(120)) * time.Microsecond
			r.DelayProb = rng.Float64()
		}
		if rng.Intn(2) == 0 {
			r.Jitter = time.Duration(1+rng.Intn(60)) * time.Microsecond
		}
		p.Rules = append(p.Rules, r)
	}
	return p
}
