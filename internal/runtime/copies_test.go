package runtime_test

import (
	"encoding/binary"
	"math"
	"testing"

	"adapt/internal/comm"
	"adapt/internal/core"
	"adapt/internal/perf"
	"adapt/internal/runtime"
	"adapt/internal/trees"
)

// TestAllreduceRendezvousCopies counts the segment buffers one
// steady-state rendezvous allreduce draws on a 4-rank live world. Each
// up-direction pull lands in a pooled scratch buffer the parent folds
// from: 3 per segment, one per tree edge. Down segments are received
// straight into each rank's result (IrecvInto) and draw none; a pull
// into a pooled buffer, copied again into the result, would double the
// count.
func TestAllreduceRendezvousCopies(t *testing.T) {
	const n, elems, seg = 4, 8192, 16 << 10 // 64 KiB per rank in 4 segments
	tree := trees.Binomial(n, 1)
	size := elems * 8
	segs := comm.NumSegments(size, seg)
	in := make([]comm.Msg, n)
	for r := range in {
		b := make([]byte, size)
		for i := 0; i < elems; i++ {
			binary.LittleEndian.PutUint64(b[i*8:], math.Float64bits(float64(r+i)))
		}
		in[r] = comm.Bytes(b)
	}
	w := runtime.NewWorld(n) // segments of 16 KiB exceed the 8 KiB eager limit
	run := func(seq int) {
		opt := core.DefaultOptions()
		opt.SegSize, opt.Seq = seg, seq
		w.Run(func(c *runtime.Comm) { core.Allreduce(c, tree, in[c.Rank()], opt) })
	}
	run(1) // warm-up
	const reps = 5
	before := perf.Read()
	for i := 0; i < reps; i++ {
		run(2 + i)
	}
	gets := perf.Read().Delta(before).BufGets
	if want := uint64(reps * segs * (n - 1)); gets != want {
		t.Fatalf("%d segment buffers drawn over %d allreduces of %d segments, want %d (one pull per tree edge per segment)",
			gets, reps, segs, want)
	}
}
