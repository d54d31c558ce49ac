package sim

import "time"

// The event queue is two-tier (a calendar/ladder queue):
//
//   - A "front" tier: the monomorphic 4-ary min-heap over a concrete
//     event slice (no container/heap, no interface{} boxing). It holds
//     exactly the events with at < frontEnd, and is the only structure
//     pops ever touch, so the (at, seq) total order is enforced by one
//     comparator in one place.
//   - A "near" tier: a ring of ladderBuckets unsorted buckets, bucket i
//     covering the half-open window [frontEnd + i·width, frontEnd +
//     (i+1)·width). Scheduling into the near future is an O(1) append.
//   - A "far" tier: one unsorted overflow slice for events at or beyond
//     the horizon (frontEnd + ladderBuckets·width).
//
// When the front heap drains, the next nonempty bucket is swept into it
// wholesale (heap pushes, O(m log m) for a bucket of m — m is small when
// width matches the event density). When the near tier drains too, the
// far tier is reseeded: width is recalibrated from the overflow's actual
// time span and its events are redistributed. Because Schedule refuses
// events in the past, nothing can land inside a window the front tier has
// already passed, so the dispatch order is byte-identical to running the
// plain heap — TestQueueKindsIdenticalOrder pins that against a
// test-only heap reference, and the full conformance registry + replay
// goldens exercise it end to end.
//
// Amortized cost: O(1) schedule, O(1) dispatch when width tracks density
// (each event is appended once, swept into the heap once, and heap
// residency is bounded by one bucket's population instead of the whole
// queue). A 100k–1M-rank simulation keeps millions of pending events; a
// single flat heap pays O(log n) with cache-hostile strides on every one
// of them, which is exactly the ceiling this structure removes.

const (
	// ladderBuckets is the near-tier ring size. 256 windows keeps the
	// sweep granularity fine enough that the front heap stays small while
	// bounding the worst-case empty-bucket scan.
	ladderBuckets = 256

	// shrinkFloor is the capacity below which drained event slices are
	// never reallocated: steady-state small queues keep their storage,
	// while a burst's capacity is released once occupancy falls under a
	// quarter (see eventHeap.pop and eventQueue.fill).
	shrinkFloor = 1024
)

type event struct {
	at  time.Duration
	seq uint64
	fn  func()
}

// before is the dispatch order: time, then insertion sequence — the
// tie-break that makes simultaneous events run in schedule order.
func (e event) before(o event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// eventHeap is a monomorphic 4-ary min-heap ordered by event.before.
// Push and pop touch concrete events only — no interface{} crossings.
// The 4-ary layout halves the tree depth of a binary heap and keeps the
// children of a node on one cache line.
type eventHeap struct {
	a []event
}

func (q *eventHeap) len() int { return len(q.a) }

func (q *eventHeap) push(e event) {
	q.a = append(q.a, e)
	i := len(q.a) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !e.before(q.a[p]) {
			break
		}
		q.a[i] = q.a[p]
		i = p
	}
	q.a[i] = e
}

func (q *eventHeap) pop() event {
	root := q.a[0]
	n := len(q.a) - 1
	last := q.a[n]
	q.a[n] = event{} // drop the fn reference so the GC can reclaim it
	q.a = q.a[:n]
	if n > 0 {
		q.siftDown(last)
	}
	// Shrink-on-drain: a burst (one 10⁷-event spike) must not pin its
	// backing array for the kernel's lifetime. Halving when occupancy
	// falls under a quarter keeps the amortized cost O(1) and leaves
	// hysteresis so steady-state push/pop never thrashes the allocator.
	if c := cap(q.a); c > shrinkFloor && n < c/4 {
		q.a = append(make([]event, 0, c/2), q.a...)
	}
	return root
}

// siftDown re-inserts e from the root, walking the hole down toward the
// smallest child until e fits.
func (q *eventHeap) siftDown(e event) {
	a := q.a
	n := len(a)
	i := 0
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		m := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if a[c].before(a[m]) {
				m = c
			}
		}
		if !a[m].before(e) {
			break
		}
		a[i] = a[m]
		i = m
	}
	a[i] = e
}

// eventQueue is the kernel's pending-event set: the ladder described
// above.
type eventQueue struct {
	front eventHeap

	// The near-tier geometry (width, horizon) is FIXED for a whole epoch:
	// it is set only by reseed, which runs when the front heap and every
	// bucket are empty. frontEnd advances through the epoch's windows as
	// buckets drain, but the horizon never slides — that is what makes
	// the tier ordering provable (front < frontEnd ≤ buckets < horizon ≤
	// overflow): an epoch's overflow events can never be out-dispatched
	// by a bucket event, because no bucket event at or past the horizon
	// exists. A sliding horizon would admit exactly that violation.
	buckets  [ladderBuckets][]event
	bhead    int           // ring index of the bucket starting at frontEnd
	bcount   int           // events across all buckets
	frontEnd time.Duration // exclusive upper bound of the front tier
	width    time.Duration // bucket window; 0 until the first reseed
	horizon  time.Duration // epoch upper bound: reseed-time frontEnd + ladderBuckets·width

	overflow []event   // far tier: events at or beyond the horizon
	spare    []event   // drained overflow backing kept for reuse (≤ shrinkFloor)
	pool     [][]event // drained bucket backings kept for reuse (≤ shrinkFloor)
	total    int
}

func (q *eventQueue) len() int { return q.total }

func (q *eventQueue) push(e event) {
	q.total++
	q.place(e)
}

// place routes an event to its tier. Events inside the front window go
// straight to the heap (this is where same-instant Schedule(0) events
// land, preserving the insertion-order tie-break); near-future events are
// an O(1) bucket append; the rest overflow to the far tier.
func (q *eventQueue) place(e event) {
	if e.at < q.frontEnd {
		q.front.push(e)
		return
	}
	if q.width > 0 && e.at < q.horizon {
		i := (q.bhead + int((e.at-q.frontEnd)/q.width)) % ladderBuckets
		b := q.buckets[i]
		if b == nil && len(q.pool) > 0 {
			// First event in this window: reuse a drained bucket's backing
			// so the steady-state ring rotation stays allocation-free.
			b = q.pool[len(q.pool)-1]
			q.pool = q.pool[:len(q.pool)-1]
		}
		q.buckets[i] = append(b, e)
		q.bcount++
		return
	}
	q.overflow = append(q.overflow, e)
}

func (q *eventQueue) pop() event {
	if q.front.len() == 0 {
		q.fill()
	}
	q.total--
	return q.front.pop()
}

// fill advances the ladder until the front heap holds the next time
// slice. Caller guarantees the queue is nonempty.
func (q *eventQueue) fill() {
	for {
		if q.bcount == 0 {
			if len(q.overflow) == 0 {
				panic("sim: pop from empty event queue")
			}
			q.reseed()
		}
		for q.bcount > 0 {
			b := q.buckets[q.bhead]
			q.buckets[q.bhead] = nil
			q.bhead = (q.bhead + 1) % ladderBuckets
			q.frontEnd += q.width
			if len(b) > 0 {
				q.bcount -= len(b)
				for i := range b {
					q.front.push(b[i])
					b[i] = event{} // drop the fn reference
				}
				// Pool the drained backing for reuse, unless a burst
				// inflated it past the shrink floor — then let the GC
				// reclaim it (shrink-on-drain).
				if cap(b) <= shrinkFloor {
					q.pool = append(q.pool, b[:0])
				}
				return
			}
		}
	}
}

// reseed recalibrates the ladder from the far tier: the new front window
// starts at the overflow's earliest event and the bucket width is fitted
// to its span, so the redistribution spreads events one-bucket-deep on
// average regardless of the workload's time scale.
func (q *eventQueue) reseed() {
	old := q.overflow
	q.overflow = q.spare // zeroed, length 0 (or nil on the first reseed)
	q.spare = nil
	minAt, maxAt := old[0].at, old[0].at
	for _, e := range old[1:] {
		if e.at < minAt {
			minAt = e.at
		}
		if e.at > maxAt {
			maxAt = e.at
		}
	}
	q.width = (maxAt-minAt)/ladderBuckets + 1
	q.frontEnd = minAt
	q.bhead = 0
	q.horizon = q.frontEnd + ladderBuckets*q.width
	if q.horizon < q.frontEnd { // duration overflow: clamp to the far edge
		q.horizon = 1<<63 - 1
	}
	for i := range old {
		q.place(old[i])
		old[i] = event{} // drop the fn reference before recycling
	}
	// Recycle the drained backing for the next overflow cycle so a
	// steady-state reseed rhythm stays allocation-free — but release it
	// when a burst inflated it past the shrink floor.
	if cap(old) <= shrinkFloor {
		q.spare = old[:0]
	}
}
