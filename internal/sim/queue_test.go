package sim

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"adapt/internal/perf"
)

// QueueKind selects a test kernel's event-queue implementation.
type QueueKind uint8

const (
	// QueueLadder is the production two-tier bucketed calendar queue.
	QueueLadder QueueKind = iota
	// QueueHeap is the flat 4-ary min-heap, the reference implementation
	// for differential tests.
	QueueHeap
)

// NewWithQueue creates an empty kernel using the given event-queue
// implementation. Both kinds dispatch in the identical (at, seq) order.
// The heap reference is the ladder with an unbounded front window: every
// event lands in the front heap and the ladder tiers never engage.
func NewWithQueue(kind QueueKind) *Kernel {
	k := New()
	if kind == QueueHeap {
		k.queue.frontEnd = math.MaxInt64
	}
	return k
}

// dispatchRecord captures one dispatched event as the observer saw it.
type dispatchRecord struct {
	seq uint64
	at  time.Duration
}

// runAdversarialWorkload drives a kernel through a seeded workload that
// exercises every ladder tier and transition: zero-delay ties, sub-width
// near-future bursts, cross-horizon far-future jumps, nested scheduling
// from inside handlers, and drain-to-empty refill cycles. It returns the
// full dispatch sequence.
func runAdversarialWorkload(k *Kernel, seed int64) []dispatchRecord {
	rng := rand.New(rand.NewSource(seed))
	var got []dispatchRecord
	k.SetDispatchObserver(func(seq uint64, at time.Duration) {
		got = append(got, dispatchRecord{seq, at})
	})
	spawned := 0
	var handler func()
	handler = func() {
		// Each event spawns a few more until the budget runs out, with
		// deltas drawn from four scales so events land in the front heap
		// (0), the near buckets (ns/µs), and the far overflow (ms/s).
		for n := rng.Intn(4); n > 0 && spawned < 60000; n-- {
			spawned++
			var d time.Duration
			switch rng.Intn(5) {
			case 0:
				d = 0 // same-instant: exercises the seq tie-break
			case 1:
				d = time.Duration(rng.Intn(500)) * time.Nanosecond
			case 2:
				d = time.Duration(rng.Intn(50)) * time.Microsecond
			case 3:
				d = time.Duration(rng.Intn(20)) * time.Millisecond
			default:
				d = time.Duration(rng.Intn(3)) * time.Second
			}
			k.Schedule(d, handler)
		}
	}
	// A spread of roots so the first reseed sees a wide span.
	for i := 0; i < 64; i++ {
		spawned++
		k.Schedule(time.Duration(rng.Intn(1000))*time.Millisecond, handler)
	}
	k.MustRun()
	k.SetDispatchObserver(nil)
	return got
}

// TestQueueKindsIdenticalOrder is the differential gate for the ladder
// queue: the exact (seq, at) dispatch sequence of QueueLadder must be
// byte-identical to the QueueHeap reference on adversarial workloads.
// This is the kernel-level half of the "replay stays byte-identical"
// contract; the conformance registry + replay goldens are the end-to-end
// half.
func TestQueueKindsIdenticalOrder(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		heap := runAdversarialWorkload(NewWithQueue(QueueHeap), seed)
		ladder := runAdversarialWorkload(NewWithQueue(QueueLadder), seed)
		if len(heap) != len(ladder) {
			t.Fatalf("seed %d: heap dispatched %d events, ladder %d", seed, len(heap), len(ladder))
		}
		if len(heap) < 10000 {
			t.Fatalf("seed %d: workload too small (%d events) to be a meaningful diff", seed, len(heap))
		}
		for i := range heap {
			if heap[i] != ladder[i] {
				t.Fatalf("seed %d: dispatch %d diverged: heap %+v, ladder %+v",
					seed, i, heap[i], ladder[i])
			}
		}
	}
}

// TestLadderOverflowNotOvertaken pins the exact bug class a sliding
// horizon admits: an event parked in the far-future overflow must not be
// out-dispatched by a later-scheduled event with a LATER timestamp that
// the near tier happens to bucket. The geometry is therefore fixed per
// epoch (see eventQueue docs); this regression test drives that scenario
// directly.
func TestLadderOverflowNotOvertaken(t *testing.T) {
	k := NewWithQueue(QueueLadder)
	var order []string
	// Force a reseed with a tiny span so the horizon lands close.
	for i := 0; i < 4; i++ {
		i := i
		k.Schedule(time.Duration(i)*time.Microsecond, func() {
			order = append(order, fmt.Sprintf("seed%d", i))
		})
	}
	// Far beyond that horizon: overflow.
	k.Schedule(10*time.Second, func() {
		order = append(order, "far")
		// Scheduled later in wall order but EARLIER than nothing — this one
		// lands after "far" in time; a sliding horizon could have bucketed
		// it next to the near tier and dispatched it first.
	})
	k.Schedule(2*time.Microsecond, func() {
		// Mid-run, schedule an event between the first horizon and the far
		// event: with a sliding horizon this could enter a bucket while
		// "far" sits in overflow, then be swept ahead of an even-earlier
		// overflow event on the next epoch.
		k.Schedule(9*time.Second+999*time.Millisecond, func() {
			order = append(order, "late-near")
		})
	})
	k.MustRun()
	want := "seed0,seed1,seed2,seed3,late-near,far"
	if got := strings.Join(order, ","); got != want {
		t.Fatalf("dispatch order = %s, want %s", got, want)
	}
}

// TestKernelRunStatsAreDeltas pins the satellite bugfix: Run publishes
// per-run deltas for dispatched/scheduled AND a per-run queue peak. The
// old code republished the kernel-lifetime peak on every Run, so a large
// first run inflated the reported peak of every later small run.
func TestKernelRunStatsAreDeltas(t *testing.T) {
	perf.Reset()
	k := New()
	// Run 1: a 512-event burst, all pending at once.
	for i := 0; i < 512; i++ {
		k.Schedule(ms(i%7), func() {})
	}
	k.MustRun()
	s1 := perf.Read()
	if s1.EventsDispatched != 512 || s1.HeapPeak != 512 {
		t.Fatalf("run 1 published dispatched=%d peak=%d, want 512/512",
			s1.EventsDispatched, s1.HeapPeak)
	}
	if st := k.Stats(); st.QueuePeakRun != 0 || st.QueuePeak != 512 {
		t.Fatalf("post-run stats = %+v, want QueuePeakRun 0, QueuePeak 512", st)
	}

	// Run 2: three events. The published delta must be 3, and the run's
	// peak must be 3 — not run 1's 512.
	perf.Reset()
	for i := 0; i < 3; i++ {
		k.Schedule(ms(i), func() {})
	}
	if st := k.Stats(); st.QueuePeakRun != 3 {
		t.Fatalf("pre-run-2 QueuePeakRun = %d, want 3", st.QueuePeakRun)
	}
	k.MustRun()
	s2 := perf.Read()
	if s2.EventsDispatched != 3 || s2.EventsScheduled != 3 {
		t.Fatalf("run 2 published dispatched=%d scheduled=%d, want 3/3 (lifetime leaked into the delta)",
			s2.EventsDispatched, s2.EventsScheduled)
	}
	if s2.HeapPeak != 3 {
		t.Fatalf("run 2 published queue peak %d, want 3 (lifetime high-water republished)", s2.HeapPeak)
	}
	// The lifetime view is still the lifetime view.
	if st := k.Stats(); st.QueuePeak != 512 || st.Dispatched != 515 {
		t.Fatalf("lifetime stats = %+v, want QueuePeak 512, Dispatched 515", st)
	}
	perf.Reset()
}

// TestHeapShrinkOnDrain pins the satellite bugfix: one large burst must
// not pin its backing array for the kernel's lifetime. After draining a
// burst far above the floor, the heap's capacity must have been released
// (and the dispatch order must be unaffected — checked by popping in
// order).
func TestHeapShrinkOnDrain(t *testing.T) {
	var q eventQueue
	q.frontEnd = math.MaxInt64 // heap reference: every event lands in the front heap
	const n = 1 << 17          // 131072, well above shrinkFloor
	for i := 0; i < n; i++ {
		q.push(event{at: time.Duration(i % 977), seq: uint64(i)})
	}
	burst := cap(q.front.a)
	if burst < n {
		t.Fatalf("burst capacity %d < %d", burst, n)
	}
	var prev event
	for i := 0; i < n; i++ {
		e := q.pop()
		if i > 0 && e.before(prev) {
			t.Fatalf("pop %d out of order: %v after %v", i, e, prev)
		}
		prev = e
	}
	if got := cap(q.front.a); got > burst/32 {
		t.Fatalf("drained heap still holds cap %d of burst %d — shrink-on-drain failed", got, burst)
	}
	// Steady state below the floor must NOT shrink (no allocator thrash):
	// interleaved push/pop at small occupancy keeps one stable backing.
	for i := 0; i < 100; i++ {
		q.push(event{at: time.Duration(i), seq: uint64(n + i)})
	}
	stable := cap(q.front.a)
	for i := 0; i < 100; i++ {
		q.pop()
		q.push(event{at: time.Duration(1000 + i), seq: uint64(2*n + i)})
	}
	if cap(q.front.a) != stable {
		t.Fatalf("steady-state backing reallocated: cap %d → %d", stable, cap(q.front.a))
	}
}

// TestLadderReleasesBurstBackings: the ladder's bucket and overflow
// backings obey the same shrink-on-drain policy — a backing inflated past
// the floor is dropped for the GC instead of pooled.
func TestLadderReleasesBurstBackings(t *testing.T) {
	var q eventQueue
	// Establish a geometry, then overflow a burst far beyond the floor.
	q.push(event{at: 0, seq: 1})
	q.push(event{at: time.Microsecond, seq: 2})
	const n = 8192
	for i := 0; i < n; i++ {
		q.push(event{at: time.Second + time.Duration(i), seq: uint64(3 + i)})
	}
	for q.len() > 0 {
		q.pop()
	}
	if q.spare != nil && cap(q.spare) > shrinkFloor {
		t.Fatalf("overflow burst backing (cap %d) retained past the shrink floor", cap(q.spare))
	}
	for _, b := range q.pool {
		if cap(b) > shrinkFloor {
			t.Fatalf("bucket burst backing (cap %d) pooled past the shrink floor", cap(b))
		}
	}
}

// TestSleepZeroDoesNotYield pins the documented Sleep(0) semantics: it
// returns inline WITHOUT passing through the event queue, so the process
// keeps running ahead of already-queued same-instant events — unlike
// Schedule(0), which queues behind them. The all-substrate conformance
// grid and replay goldens were recorded under these semantics; changing
// Sleep(0) to yield would reorder every golden, so the behavior is
// documented and pinned rather than "fixed".
func TestSleepZeroDoesNotYield(t *testing.T) {
	k := New()
	var order []string
	k.Go("p", func(p *Proc) {
		p.Sleep(ms(1))
		// Queued before the Sleep(0): would run first if Sleep(0) yielded.
		k.Schedule(0, func() { order = append(order, "queued") })
		p.Sleep(0)
		order = append(order, "after-sleep0")
	})
	k.MustRun()
	want := "after-sleep0,queued"
	if got := strings.Join(order, ","); got != want {
		t.Fatalf("order = %s, want %s (Sleep(0) must not yield)", got, want)
	}
}

// TestDeadlockReportCapped: a deadlocked 100k-proc simulation must fail
// fast with a bounded report — the first deadlockReportCap names plus a
// total — instead of sorting and printing every stuck name.
func TestDeadlockReportCapped(t *testing.T) {
	k := New()
	const n = 100000
	for i := 0; i < n; i++ {
		k.Go(fmt.Sprintf("rank-%06d", i), func(p *Proc) { p.Park() })
	}
	start := time.Now()
	_, err := k.Run()
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("expected deadlock error")
	}
	msg := err.Error()
	if !strings.Contains(msg, fmt.Sprintf("%d processes stuck", n)) {
		t.Fatalf("error lacks the total count: %s", msg)
	}
	if !strings.Contains(msg, fmt.Sprintf("(+%d more)", n-deadlockReportCap)) {
		t.Fatalf("error lacks the truncation suffix: %s", msg)
	}
	if got := strings.Count(msg, "rank-"); got != deadlockReportCap {
		t.Fatalf("error names %d procs, want %d: %s", got, deadlockReportCap, msg)
	}
	if len(msg) > 1024 {
		t.Fatalf("deadlock report is %d bytes — not capped", len(msg))
	}
	if elapsed > 30*time.Second {
		t.Fatalf("deadlock report took %v — not failing fast", elapsed)
	}
}
