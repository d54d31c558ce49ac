//go:build !race

// Excluded under -race, which slows each queue by a different factor.

package sim

import (
	"math"
	"sort"
	"testing"
	"time"
)

// dispatchEvents pushes events through k in the shape of
// BenchmarkKernelDispatch (batches of 1024 over 128 distinct timestamps,
// each batch drained before the next) and returns the wall time taken.
func dispatchEvents(k *Kernel, events int) time.Duration {
	fn := func() {}
	const batch = 1024
	start := time.Now()
	for n := 0; n < events; n += batch {
		for j := 0; j < batch; j++ {
			k.Schedule(time.Duration(j&127)*time.Microsecond, fn)
		}
		k.MustRun()
	}
	return time.Since(start)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[len(s)/2]
}

// TestKernelDispatchBeatsHeap is the dispatch-cost gate. Each of five
// rounds runs the production ladder queue and the flat-heap reference
// on the same shape in alternating slices of 4096 events and keeps each
// side's cheapest slice: host noise only ever adds time, and alternation
// lands drift on both sides. The gate fails unless the ladder's median
// ns/event over the rounds is at least 15% below the heap's. The margin
// makes a ladder that has fallen back onto the heap path fail every
// time, not half the time.
func TestKernelDispatchBeatsHeap(t *testing.T) {
	const rounds, events, slice = 5, 1 << 18, 1 << 12
	ladderK, heapK := New(), NewWithQueue(QueueHeap)
	dispatchEvents(ladderK, slice) // grow both queues' backing arrays
	dispatchEvents(heapK, slice)
	var ladder, heap []float64
	for r := 0; r < rounds; r++ {
		l, h := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
		for n := 0; n < events; n += slice {
			l = min(l, dispatchEvents(ladderK, slice))
			h = min(h, dispatchEvents(heapK, slice))
		}
		ladder = append(ladder, float64(l.Nanoseconds())/slice)
		heap = append(heap, float64(h.Nanoseconds())/slice)
	}
	l, h := median(ladder), median(heap)
	t.Logf("median ns/event over %d rounds: ladder %.1f, heap %.1f, ratio %.2f", rounds, l, h, l/h)
	if l > 0.85*h {
		t.Fatalf("ladder queue dispatch %.1f ns/event is not 15%% below the heap reference's %.1f (ratio %.2f)", l, h, l/h)
	}
}
