package comm

import (
	"math/bits"
	"sync"

	"adapt/internal/perf"
	"adapt/internal/pool"
)

// Size-classed segment-buffer pool.
//
// Every real-payload transfer in both substrates copies bytes — the live
// runtime's eager snapshot and rendezvous pull, the simulator's
// receiver-owned payload copies — and the collectives assemble results
// from per-segment buffers. At the default 128 KB segment size a single
// 4 MB broadcast over a thousand ranks churns tens of thousands of
// identically sized slices; allocating each with make([]byte, …) makes
// the garbage collector a hidden participant in every experiment.
//
// GetBuf/PutBuf recycle those slices through power-of-two size classes
// (256 B … 64 MB). Each class is fronted by a typed, mutex-guarded
// freelist — a plain [][]byte stack — so the steady-state get/put cycle
// moves slice headers only: no interface boxing, no per-cycle
// allocation (sync.Pool alone costs one *[]byte box per recycle, which
// at collective rates is an allocation per segment). A bounded freelist
// overflows into a sync.Pool tier so bursts beyond the cap still
// recycle, with GC-driven eviction reclaiming them under memory
// pressure. Requests above the largest class fall back to plain
// allocation; Puts of foreign or undersized slices are dropped, never
// retained, so the pool cannot be poisoned by odd capacities.
//
// Ownership discipline: a buffer obtained from GetBuf is owned by exactly
// one party at a time. Callers Put only buffers they own and must not
// touch them afterwards. Receivers own their delivered payload buffers
// (both substrates hand over fresh copies), which is what lets the
// collective engines recycle a segment the moment its bytes have been
// folded or copied into the assembled result. Under the pooldebug build
// constraint every released buffer is poisoned and quarantined by
// pool.Bufs, and GetBuf checks the poison of every buffer it reuses.

const (
	minBufClassBits = 8  // smallest pooled capacity: 256 B
	maxBufClassBits = 26 // largest pooled capacity: 64 MB
	numBufClasses   = maxBufClassBits - minBufClassBits + 1
)

// bufFreelist is one class's typed fast path. Pops and pushes move
// slice headers in and out of a reused backing array — zero allocations
// once the stack's array has grown to its high-water mark (bounded by
// the class cap).
type bufFreelist struct {
	mu   sync.Mutex
	bufs [][]byte
	cap  int
	chk  pool.Bufs
}

// bufKind names segment buffers in pooldebug panics.
const bufKind = "comm segment buffer"

var (
	bufFree    [numBufClasses]bufFreelist
	bufClasses [numBufClasses]sync.Pool // overflow tier, GC-evictable
)

func init() {
	// Bound each freelist to ~8 MB of retained capacity, but always allow
	// at least one resident buffer and never more than 64 — small classes
	// are cheap to retain, the 64 MB class keeps exactly one.
	const retainBudget = 8 << 20
	for cls := range bufFree {
		c := retainBudget / (1 << (cls + minBufClassBits))
		if c < 1 {
			c = 1
		}
		if c > 64 {
			c = 64
		}
		bufFree[cls].cap = c
	}
}

// pop takes a full-capacity buffer off the freelist, or nil.
func (fl *bufFreelist) pop() []byte {
	fl.mu.Lock()
	n := len(fl.bufs)
	if n == 0 {
		fl.mu.Unlock()
		return nil
	}
	b := fl.bufs[n-1]
	fl.bufs[n-1] = nil
	fl.bufs = fl.bufs[:n-1]
	fl.mu.Unlock()
	return b
}

// push retains a full-capacity buffer if the class has room and returns
// it otherwise. Under pooldebug the buffer enters quarantine and the one
// leaving it, if any, takes its place.
func (fl *bufFreelist) push(b []byte) []byte {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	if b = fl.chk.Hold(bufKind, b); b == nil || len(fl.bufs) >= fl.cap {
		return b
	}
	fl.bufs = append(fl.bufs, b)
	return nil
}

// bufClass returns the index of the smallest class with capacity ≥ n, or
// -1 if n exceeds the largest class.
func bufClass(n int) int {
	b := bits.Len(uint(n - 1)) // ceil(log2 n) for n ≥ 2
	if b < minBufClassBits {
		b = minBufClassBits
	}
	if b > maxBufClassBits {
		return -1
	}
	return b - minBufClassBits
}

// GetBuf returns a byte slice of length n drawn from the pool. The
// contents of the returned slice are unspecified — callers must overwrite
// every byte they later read. Use GetBufZero when zero-fill semantics are
// required. n ≤ 0 returns nil.
func GetBuf(n int) []byte {
	if n <= 0 {
		return nil
	}
	cls := bufClass(n)
	if cls < 0 {
		perf.RecordBufGet(false)
		return make([]byte, n)
	}
	if b := bufFree[cls].pop(); b != nil {
		pool.CheckBuf(bufKind, b)
		perf.RecordBufGet(true)
		return b[:n]
	}
	if p, _ := bufClasses[cls].Get().(*[]byte); p != nil {
		pool.CheckBuf(bufKind, *p)
		perf.RecordBufGet(true)
		return (*p)[:n]
	}
	perf.RecordBufGet(false)
	return make([]byte, n, 1<<(cls+minBufClassBits))
}

// GetBufZero is GetBuf with the returned range zeroed.
func GetBufZero(n int) []byte {
	b := GetBuf(n)
	for i := range b {
		b[i] = 0
	}
	return b
}

// PutBuf returns b to the pool. Only non-empty slices whose capacity is
// exactly a pool size class are retained; anything else (including
// slices never obtained from GetBuf) is silently dropped. The caller
// must not use b after the call.
//
// Zero-length slices are always dropped, whatever their capacity: an
// empty slice is how callers pass "no payload", and code holding
// msg.Data[:0] rarely means to surrender the backing array. Retaining it
// would hand memory to the next GetBuf while the original owner still
// writes through the parent slice — a poisoned size class.
func PutBuf(b []byte) {
	c := cap(b)
	if len(b) == 0 || c < 1<<minBufClassBits {
		perf.RecordBufPut(false)
		return
	}
	cls := bufClass(c)
	if cls < 0 || c != 1<<(cls+minBufClassBits) {
		perf.RecordBufPut(false)
		return
	}
	if over := bufFree[cls].push(b[:c]); over != nil {
		// Overflow tier only: the boxed header is declared here so the
		// freelist fast path stays allocation-free.
		full := over
		bufClasses[cls].Put(&full)
	}
	perf.RecordBufPut(true)
}
