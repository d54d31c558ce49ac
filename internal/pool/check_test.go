//go:build pooldebug

package pool

import "testing"

// TestCheckerCatchesWriteAfterRelease: a record written while it waits
// in quarantine panics when the list hands it out again.
func TestCheckerCatchesWriteAfterRelease(t *testing.T) {
	l := newList()
	a := l.Get()
	l.Put(a)
	a.n = 1 // the bug: a holder kept the pointer
	for i := 0; i < Depth; i++ {
		l.Put(l.New())
	}
	mustPanic(t, "pool.rec written after release", func() { l.Get() })
}

// TestCheckerCatchesDoublePut: a record put twice while the first is
// still quarantined panics.
func TestCheckerCatchesDoublePut(t *testing.T) {
	l := newList()
	a := l.Get()
	l.Put(a)
	mustPanic(t, "pool.rec released twice", func() { l.Put(a) })
}

// TestLiveCatchesUseAfterRelease: an entry point on a record whose last
// holder released it panics.
func TestLiveCatchesUseAfterRelease(t *testing.T) {
	var r Ref
	r.Init(1)
	r.Live("pool.rec")
	r.Release("pool.rec")
	mustPanic(t, "pool.rec used after release", func() { r.Live("pool.rec") })
}

// TestBufsPoisonAndQuarantine: a released buffer is poisoned and reused
// only after Depth others; a write meanwhile, or a second release,
// panics.
func TestBufsPoisonAndQuarantine(t *testing.T) {
	var c Bufs
	first := make([]byte, 256)
	if c.Hold("pool.buf", first) != nil {
		t.Fatal("a fresh release left quarantine at once")
	}
	mustPanic(t, "pool.buf released twice", func() { c.Hold("pool.buf", first) })
	for i := 1; i < Depth; i++ {
		c.Hold("pool.buf", make([]byte, 256))
	}
	if got := c.Hold("pool.buf", make([]byte, 256)); &got[0] != &first[0] {
		t.Fatal("the oldest buffer did not leave quarantine first")
	}
	CheckBuf("pool.buf", first)
	first[3] = 0
	mustPanic(t, "pool.buf written after release", func() { CheckBuf("pool.buf", first) })
}
