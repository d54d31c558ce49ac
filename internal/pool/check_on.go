//go:build pooldebug

package pool

import (
	"bytes"
	"reflect"
	"unsafe"
)

// Depth is how many later releases a freed record or buffer waits
// behind in quarantine before it can be reused.
const Depth = 64

// poison fills every released buffer.
const poison = 0xdb

// quarantined is one released record and its bytes as Put left them.
type quarantined[T any] struct {
	x    *T
	snap []byte
}

// checker is the quarantine FIFO: q[head:] are released records, oldest
// first; spare recycles snapshot storage.
type checker[T any] struct {
	q     []quarantined[T]
	head  int
	spare [][]byte
}

func bytesOf[T any](x *T) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(x)), unsafe.Sizeof(*x))
}

// kind names the record type in panics, e.g. "simmpi.xmit".
func (c *checker[T]) kind() string { return reflect.TypeFor[T]().String() }

// take hands out the oldest quarantined record once Depth others wait
// behind it, after checking nothing wrote to it while it was free.
func (c *checker[T]) take() *T {
	if len(c.q)-c.head <= Depth {
		return nil
	}
	e := c.q[c.head]
	c.q[c.head] = quarantined[T]{}
	c.head++
	if !bytes.Equal(e.snap, bytesOf(e.x)) {
		panic(c.kind() + " written after release")
	}
	c.spare = append(c.spare, e.snap)
	return e.x
}

// hold quarantines a released record, snapshotting its reset bytes.
func (c *checker[T]) hold(x *T) bool {
	for i := max(c.head, len(c.q)-Depth); i < len(c.q); i++ {
		if c.q[i].x == x {
			panic(c.kind() + " released twice")
		}
	}
	var snap []byte
	if n := len(c.spare); n > 0 {
		snap = c.spare[n-1]
		c.spare = c.spare[:n-1]
	}
	if c.head > 0 && c.head >= len(c.q)/2 {
		n := copy(c.q, c.q[c.head:])
		clear(c.q[n:])
		c.q, c.head = c.q[:n], 0
	}
	c.q = append(c.q, quarantined[T]{x, append(snap[:0], bytesOf(x)...)})
	return true
}

func (c *checker[T]) held() int { return len(c.q) - c.head }

// Live panics when a record's entry point runs after its last holder
// released it.
func (r *Ref) Live(kind string) {
	if r.n <= 0 {
		panic(kind + " used after release")
	}
}

// Bufs quarantines the buffers of a stack kept outside List. The owner
// calls Hold under the stack's own lock.
type Bufs struct {
	q [][]byte
}

// Hold poisons a released buffer and quarantines it. It returns the
// oldest quarantined buffer, checked, once Depth others wait behind it,
// or nil.
func (c *Bufs) Hold(kind string, b []byte) []byte {
	for _, o := range c.q[max(0, len(c.q)-Depth):] {
		if &o[:1][0] == &b[:1][0] {
			panic(kind + " released twice")
		}
	}
	for i := range b {
		b[i] = poison
	}
	c.q = append(c.q, b)
	if len(c.q) <= Depth {
		return nil
	}
	old := c.q[0]
	n := copy(c.q, c.q[1:])
	c.q[n] = nil
	c.q = c.q[:n]
	CheckBuf(kind, old)
	return old
}

// CheckBuf panics when a buffer leaving a stack was written after its
// release, i.e. lost its poison.
func CheckBuf(kind string, b []byte) {
	for _, v := range b[:cap(b)] {
		if v != poison {
			panic(kind + " written after release")
		}
	}
}
