package progress

import (
	"adapt/internal/comm"
	"adapt/internal/metrics"
)

// Scheduler health telemetry (DESIGN.md §15), aggregated across every
// scheduler instance in the process: per-rank executors in the serving
// layer all feed the same counters, which is the operator view — "is
// the progress plane spinning, stalling, or parked". Every site is
// gated: one atomic load per tick when telemetry is off.
var (
	mSchedTicks = metrics.NewCounter("adapt_progress_sched_ticks_total",
		"fair round-robin scheduling rounds executed")
	mSchedStalls = metrics.NewCounter("adapt_progress_sched_stalls_total",
		"rounds that advanced no operation (the starvation-gate trip signal)")
	mSchedParks = metrics.NewCounter("adapt_progress_sched_parks_total",
		"times a driver blocked on the shared notifier with work in flight")
	mSchedDepth = metrics.NewHistogram("adapt_progress_sched_depth",
		"live operations enrolled on a scheduler, observed at each Add")
)

// Notifier is a one-token wake channel shared across engines: each
// wake-worthy event (completion, parked arrival, notice) on any attached
// engine deposits the token, and a scheduler blocked in Wait consumes
// it. The token coalesces bursts — one wake may cover many events, so
// consumers must re-scan their work after every Wait.
type Notifier struct {
	ch chan struct{}
}

// NewNotifier builds an unarmed notifier.
func NewNotifier() *Notifier {
	return &Notifier{ch: make(chan struct{}, 1)}
}

// Signal deposits the wake token; never blocks.
func (n *Notifier) Signal() {
	select {
	case n.ch <- struct{}{}:
	default:
	}
}

// Wait blocks until a Signal lands (or consumes one already deposited).
func (n *Notifier) Wait() { <-n.ch }

// Op is a driveable operation: anything with completion detection. The
// non-blocking collectives in internal/core satisfy it.
type Op interface {
	Done() bool
}

// notifierAttacher is the optional substrate hook the scheduler uses to
// block across many communicators at once. Every substrate Comm in this
// repository implements it; foreign comm.Comm implementations fall back
// to single-comm blocking.
type notifierAttacher interface {
	AttachProgressNotifier(*Notifier)
}

// Scheduled is one operation under a scheduler's care, with the
// communicator whose progress loop advances it.
type Scheduled struct {
	C  comm.Comm
	Op Op

	// DoneTick records the Drive tick on which the operation was first
	// observed complete (0 until then) — the fairness tests pin the
	// round-robin contract with it.
	DoneTick int
}

// Scheduler drives many concurrent operations — on one communicator or
// across several — with fair round-robin service: every tick visits
// every unfinished operation once, starting one position later than the
// previous tick, so a long rendezvous transfer on one communicator
// cannot starve small collectives on another. When a full round makes no
// progress the scheduler blocks on a shared Notifier (or, for
// communicators without one, on the first unfinished operation's
// blocking Progress) instead of spinning.
type Scheduler struct {
	items    []*Scheduled
	notifier *Notifier
	allWired bool // every communicator accepted the notifier
	rr       int  // rotating round-robin start index

	// Ticks counts scheduling rounds; monotone across Drive calls.
	Ticks int
}

// NewScheduler adopts the given operations. Communicators that support
// notifier attachment (all three substrates here) are wired to a shared
// Notifier so Drive can block across all of them at once.
func NewScheduler(items ...*Scheduled) *Scheduler {
	s := &Scheduler{items: items, notifier: NewNotifier(), allWired: true}
	seen := make(map[comm.Comm]bool)
	for _, it := range items {
		if seen[it.C] {
			continue
		}
		seen[it.C] = true
		if na, ok := it.C.(notifierAttacher); ok {
			na.AttachProgressNotifier(s.notifier)
		} else {
			s.allWired = false
		}
	}
	return s
}

// Add enrolls another operation mid-flight.
func (s *Scheduler) Add(it *Scheduled) {
	if na, ok := it.C.(notifierAttacher); ok {
		na.AttachProgressNotifier(s.notifier)
	} else {
		s.allWired = false
	}
	s.items = append(s.items, it)
	if metrics.Enabled() {
		mSchedDepth.Observe(uint64(s.Live()))
	}
}

// Items exposes the scheduled operations (completion ticks included).
func (s *Scheduler) Items() []*Scheduled { return s.items }

// Live returns the number of enrolled operations not yet observed
// complete — the admission-control signal a serving layer bounds its
// in-flight work with.
func (s *Scheduler) Live() int {
	n := 0
	for _, it := range s.items {
		if it.Op != nil && it.DoneTick == 0 {
			n++
		}
	}
	return n
}

// Poke deposits the wake token so a Drive/DriveUntil blocked in the
// notifier re-checks its predicate. Unlike every other method it is safe
// from any goroutine — producers use it to hand new work to a driver
// parked with nothing in flight advancing.
func (s *Scheduler) Poke() { s.notifier.Signal() }

// Compact drops completed operations so a long-lived scheduler serving
// an endless request stream does not grow without bound. Returns how
// many items were released. Owner-goroutine only, like Drive.
func (s *Scheduler) Compact() int {
	kept := s.items[:0]
	for _, it := range s.items {
		if it.Op != nil && it.DoneTick == 0 {
			kept = append(kept, it)
		}
	}
	removed := len(s.items) - len(kept)
	for i := len(kept); i < len(s.items); i++ {
		s.items[i] = nil
	}
	s.items = kept
	if len(s.items) == 0 {
		s.rr = 0
	}
	return removed
}

// step runs one fair round: visit every unfinished operation once,
// rotating the start index, firing each communicator's ready callbacks.
// Returns how many operations remain and whether any completed.
func (s *Scheduler) step() (remaining int, advanced bool) {
	n := len(s.items)
	s.Ticks++
	mSchedTicks.Inc()
	start := s.rr
	s.rr++
	for k := 0; k < n; k++ {
		it := s.items[(start+k)%n]
		if it.Op == nil || it.DoneTick != 0 {
			continue
		}
		it.C.TryProgress()
		if it.Op.Done() {
			it.DoneTick = s.Ticks
			advanced = true
			continue
		}
		remaining++
	}
	return remaining, advanced
}

// Drive runs the scheduler until every operation completes.
func (s *Scheduler) Drive() { s.DriveUntil(func() bool { return false }) }

// DriveUntil runs the scheduler until pred returns true (checked once
// per tick) or every operation completes.
func (s *Scheduler) DriveUntil(pred func() bool) {
	for !pred() {
		remaining, advanced := s.step()
		if remaining == 0 {
			return
		}
		if advanced {
			continue
		}
		mSchedStalls.Inc()
		if s.allWired {
			mSchedParks.Inc()
			s.notifier.Wait()
			continue
		}
		for _, it := range s.items {
			if it.Op != nil && it.DoneTick == 0 {
				it.C.Progress()
				break
			}
		}
	}
}
