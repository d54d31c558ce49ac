// Package pool is the one recycling mechanism behind every pooled
// record in the repository: an unsynchronised free-list (List) and one
// reference count (Ref). The simulator's transfer, message and request
// records, the engines' envelopes and the FEC framer's groups all draw
// from a List; every record that more than one party holds counts its
// holders with a Ref, whose last Release returns it to its List.
//
// The pooldebug build constraint turns on a checker, a test-only build
// mode like -race: Put poisons a record (its reset bytes are
// snapshotted) or buffer (filled with a pattern), the freed object waits
// in a quarantine FIFO behind 64 later releases before it can be
// reused, Get verifies the poison is intact (a write after release), a
// record's entry points call Ref.Live (a use after release), and a
// second release panics while the first is still quarantined. Default
// builds compile the hooks to nothing.
package pool

// List is an unsynchronised free-list of *T records; the zero List is
// ready to use. The owner keeps its own lock where records cross
// goroutines (the engine lock for requests, the framer's mutex for FEC
// groups). The checker names a record kind by its type, e.g.
// "simmpi.xmit".
type List[T any] struct {
	chk checker[T] // pooldebug: the quarantine; empty otherwise

	// New builds a record, binding its handlers once; nil means new(T).
	New func() *T
	// Reset clears a released record, keeping what New bound; nil means
	// zero it.
	Reset func(*T)

	free []*T
	made int
}

// Get reuses a released record or builds a new one.
func (l *List[T]) Get() *T {
	if x := l.chk.take(); x != nil {
		return x
	}
	if n := len(l.free); n > 0 {
		x := l.free[n-1]
		l.free[n-1] = nil
		l.free = l.free[:n-1]
		return x
	}
	l.made++
	if l.New == nil {
		return new(T)
	}
	return l.New()
}

// Put resets x and returns it to the list. The caller must not touch x
// afterwards.
func (l *List[T]) Put(x *T) {
	if l.Reset == nil {
		var zero T
		*x = zero
	} else {
		l.Reset(x)
	}
	if l.chk.hold(x) {
		return
	}
	l.free = append(l.free, x)
}

// Outstanding counts the records built by this list and not back on it:
// zero once every record has been released.
func (l *List[T]) Outstanding() int {
	return l.made - len(l.free) - l.chk.held()
}

// Ref counts a record's holders. The owner sets the initial count with
// Init when it draws the record, and keeps the count under the lock
// that guards the record.
type Ref struct{ n int32 }

// Init sets the count for a record just drawn from its List.
func (r *Ref) Init(n int32) { r.n = n }

// Retain adds a holder.
func (r *Ref) Retain() { r.n++ }

// Release drops one holder and reports whether it was the last, when the
// caller must return the record to its List. Releasing more references
// than were held panics, naming the record kind.
func (r *Ref) Release(kind string) bool {
	if r.n--; r.n > 0 {
		return false
	}
	if r.n < 0 {
		panic(kind + " released twice")
	}
	return true
}

// Count returns the number of holders.
func (r *Ref) Count() int { return int(r.n) }
