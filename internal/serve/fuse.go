package serve

import (
	"sync"
	"time"

	"adapt/internal/comm"
	"adapt/internal/perf"
)

// fuser merges same-shape allreduce requests arriving within the fuse
// window into one collective over a concatenated vector. Request i's
// result is the fused result's bytes at offset i*elems — element
// positions never mix and each element's fold order over ranks is the
// tree order either way, so fused execution is byte-identical to
// running every request alone.
type fuser struct {
	b       *backend
	window  time.Duration
	maxReqs int

	mu      sync.Mutex
	batches map[int]*fuseBatch // per-rank element count → open batch
}

type fusePart struct {
	// raw is the world*elems contributions, rank-major little-endian
	// float64s: the request's pooled frame body, owned by the part.
	raw     []byte
	deliver func(out []byte, mask []bool, hold *resultHold, err error)
}

type fuseBatch struct {
	elems int
	parts []fusePart
	timer *time.Timer
}

func newFuser(b *backend, window time.Duration, maxReqs int) *fuser {
	return &fuser{b: b, window: window, maxReqs: maxReqs, batches: map[int]*fuseBatch{}}
}

// add enqueues one allreduce of elems float64s per rank. With fusing
// off the request submits immediately as a batch of one.
func (f *fuser) add(part fusePart, elems int) {
	if f.window <= 0 {
		f.b.submitFused(&fuseBatch{elems: elems, parts: []fusePart{part}})
		return
	}
	f.mu.Lock()
	bt := f.batches[elems]
	if bt == nil {
		bt = &fuseBatch{elems: elems}
		f.batches[elems] = bt
		bt.timer = time.AfterFunc(f.window, func() { f.flush(elems) })
	}
	bt.parts = append(bt.parts, part)
	if len(bt.parts) >= f.maxReqs {
		delete(f.batches, elems)
		bt.timer.Stop()
		f.mu.Unlock()
		f.b.submitFused(bt)
		return
	}
	f.mu.Unlock()
}

// flush closes the open batch for elems when its window expires.
func (f *fuser) flush(elems int) {
	f.mu.Lock()
	bt := f.batches[elems]
	delete(f.batches, elems)
	f.mu.Unlock()
	if bt != nil {
		f.b.submitFused(bt)
	}
}

// submitFused turns a batch into one service job. A lone request's
// frame body already is the per-rank contributions, so rank r folds
// its slice of it in place; a fused batch copies every part's rank-r
// slice into one pooled buffer per rank and frees the parts' payloads.
// Delivery demultiplexes the fused result back by offset. An admission
// rejection fails every part in the batch with the typed Overloaded
// error.
//
// Each rank's result overwrites its contribution, and each part's
// result frame sends its slice of rank 0's result from where it lies,
// so the buffers are recycled only after the last part's frame is
// written (a resultHold with one reference per part). A failed job
// leaves them to the GC: a surviving rank may still hold its slice.
func (b *backend) submitFused(bt *fuseBatch) {
	k := len(bt.parts)
	sz := bt.elems * 8
	mFuseBatch.Observe(uint64(k))
	in := make([][]byte, b.n)
	if k == 1 {
		// Capacity capped: no append or pool Put can reach past a slice.
		raw := bt.parts[0].raw
		for r := range in {
			in[r] = raw[r*sz : (r+1)*sz : (r+1)*sz]
		}
	} else {
		perf.RecordServeFused(k)
		for r := range in {
			buf := comm.GetBuf(k * sz)
			for i, part := range bt.parts {
				copy(buf[i*sz:], part.raw[r*sz:(r+1)*sz])
			}
			in[r] = buf
		}
		for _, part := range bt.parts {
			releaseFrame(part.raw)
		}
	}
	release := func() {
		if k == 1 {
			releaseFrame(bt.parts[0].raw)
			return
		}
		for _, buf := range in {
			comm.PutBuf(buf)
		}
	}
	j := &job{
		kind: jobAllreduce,
		in:   in,
		deliver: func(out []byte, mask []bool, err error) {
			if err != nil {
				for _, part := range bt.parts {
					part.deliver(nil, nil, nil, err)
				}
				return
			}
			hold := newResultHold(k, release)
			for i, part := range bt.parts {
				part.deliver(out[i*sz:(i+1)*sz], mask, hold, nil)
			}
		},
	}
	if err := b.submitService(j); err != nil {
		for _, part := range bt.parts {
			part.deliver(nil, nil, nil, err)
		}
		release() // refused before any rank saw the job
	}
}
