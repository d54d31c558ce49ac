// Package sim is a deterministic discrete-event simulation kernel with
// coroutine-style processes. It underpins the simulated MPI substrate
// (internal/simmpi) used to reproduce the paper's experiments — from the
// 1000+-rank figures up to million-rank topology sweeps — on a single
// machine.
//
// Determinism: the kernel runs exactly one goroutine at a time — either
// the event dispatcher or a single resumed process — with strict handoff,
// and orders simultaneous events by insertion sequence. Two runs of the
// same workload produce identical virtual-time trajectories.
//
// The event queue is a two-tier bucketed calendar ("ladder") queue with a
// monomorphic 4-ary heap as its front tier (see queue.go): amortized O(1)
// schedule and dispatch with zero per-event allocations, preserving the
// exact (at, seq) dispatch order of a single flat heap.
package sim

import (
	"fmt"
	"sort"
	"time"

	"adapt/internal/perf"
)

// Kernel is a discrete-event simulator instance.
type Kernel struct {
	now   time.Duration
	queue eventQueue
	seq   uint64

	yield chan struct{} // process → kernel control handoff
	procs []*Proc
	live  int

	// Stats (see Stats); reported* track what Run already published to
	// the process-wide perf counters, so repeated Runs publish deltas.
	// queuePeak is the kernel-lifetime high-water mark; runPeak is the
	// high-water mark since the previous Run returned, which is what Run
	// publishes — republishing the lifetime peak made every later Run
	// re-report run 1's burst (see TestKernelRunStatsAreDeltas).
	dispatched         uint64
	scheduled          uint64
	queuePeak          int
	runPeak            int
	reportedDispatched uint64
	reportedScheduled  uint64

	// onDispatch, when non-nil, observes every dispatched event (seq,
	// virtual time) before its handler runs. The nil fast path is a single
	// predictable branch and adds zero allocations to the dispatch loop
	// (gated by BenchmarkKernelDispatchObserved/TestObserverNilZeroAlloc).
	onDispatch func(seq uint64, at time.Duration)
}

// New creates an empty kernel at virtual time zero.
func New() *Kernel { return &Kernel{yield: make(chan struct{})} }

// Now returns the current virtual time.
func (k *Kernel) Now() time.Duration { return k.now }

// Dispatched returns the number of events executed so far.
func (k *Kernel) Dispatched() uint64 { return k.dispatched }

// Stats is a kernel's event-loop counter snapshot.
type Stats struct {
	Dispatched   uint64 // events executed
	Scheduled    uint64 // events inserted
	QueuePeak    int    // kernel-lifetime maximum simultaneous pending events
	QueuePeakRun int    // maximum pending events since the previous Run returned
	QueueLen     int    // pending events right now
}

// Stats returns the kernel's counters. QueuePeak is the lifetime
// high-water mark; QueuePeakRun covers only the window since the last
// completed Run (it is what Run publishes to the process-wide counters).
func (k *Kernel) Stats() Stats {
	return Stats{
		Dispatched:   k.dispatched,
		Scheduled:    k.scheduled,
		QueuePeak:    k.queuePeak,
		QueuePeakRun: k.runPeak,
		QueueLen:     k.queue.len(),
	}
}

// Schedule runs fn after delay ≥ 0 of virtual time. This is the single
// validation and insertion site for events: At funnels through it, so an
// event placed in the past always fails here with the same diagnostic.
func (k *Kernel) Schedule(delay time.Duration, fn func()) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: event in the past: %v < %v", k.now+delay, k.now))
	}
	k.seq++
	k.scheduled++
	k.queue.push(event{at: k.now + delay, seq: k.seq, fn: fn})
	if n := k.queue.len(); n > k.runPeak {
		k.runPeak = n
		if n > k.queuePeak {
			k.queuePeak = n
		}
	}
}

// SetDispatchObserver installs (or, with nil, removes) a hook that sees
// every dispatched event's insertion sequence and virtual time before its
// handler runs — enough to attribute trace records to dispatch order
// without touching the handlers. The observer must not schedule events.
func (k *Kernel) SetDispatchObserver(fn func(seq uint64, at time.Duration)) {
	k.onDispatch = fn
}

// At runs fn at absolute virtual time t ≥ Now().
func (k *Kernel) At(t time.Duration, fn func()) {
	k.Schedule(t-k.now, fn)
}

// deadlockReportCap bounds how many stuck-process names a deadlock error
// spells out; at 100k+ ranks sorting and printing every name would cost
// more than the simulation that deadlocked (see TestDeadlockReportCapped).
const deadlockReportCap = 16

// Run dispatches events until the queue drains. If processes are still
// alive when the queue is empty, the simulation is deadlocked and Run
// returns an error naming the first deadlockReportCap stuck processes
// (plus a total). On success it returns the final virtual time.
func (k *Kernel) Run() (time.Duration, error) {
	for k.queue.len() > 0 {
		e := k.queue.pop()
		k.now = e.at
		k.dispatched++
		if k.onDispatch != nil {
			k.onDispatch(e.seq, e.at)
		}
		e.fn()
	}
	perf.RecordKernelRun(k.dispatched-k.reportedDispatched,
		k.scheduled-k.reportedScheduled, k.runPeak)
	k.reportedDispatched = k.dispatched
	k.reportedScheduled = k.scheduled
	k.runPeak = k.queue.len() // 0: the queue just drained
	if k.live > 0 {
		var stuck []string
		for _, p := range k.procs {
			if !p.done {
				stuck = append(stuck, p.Name)
			}
		}
		sort.Strings(stuck)
		more := ""
		if len(stuck) > deadlockReportCap {
			more = fmt.Sprintf(" (+%d more)", len(stuck)-deadlockReportCap)
			stuck = stuck[:deadlockReportCap]
		}
		return k.now, fmt.Errorf("sim: deadlock at %v: %d processes stuck: %v%s", k.now, k.live, stuck, more)
	}
	return k.now, nil
}

// MustRun is Run that panics on deadlock, for tests and benchmarks.
func (k *Kernel) MustRun() time.Duration {
	t, err := k.Run()
	if err != nil {
		panic(err)
	}
	return t
}
