package pool

import (
	"fmt"
	"strings"
	"testing"
)

type rec struct {
	n     int
	bound func() int
}

func newList() *List[rec] {
	l := &List[rec]{Reset: func(x *rec) { x.n = 0 }}
	l.New = func() *rec {
		x := &rec{}
		x.bound = func() int { return x.n }
		return x
	}
	return l
}

// mustPanic runs f and checks it panics with a message containing want.
func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		if p := recover(); p == nil || !strings.Contains(fmt.Sprint(p), want) {
			t.Fatalf("recovered %v, want a panic naming %q", p, want)
		}
	}()
	f()
}

// TestListRecycles: a released record is reset and handed out again
// (after the quarantine under pooldebug) with its bound handler intact,
// and Outstanding counts the records not back on the list.
func TestListRecycles(t *testing.T) {
	l := newList()
	a := l.Get()
	a.n = 7
	if l.Outstanding() != 1 {
		t.Fatalf("outstanding %d, want 1", l.Outstanding())
	}
	l.Put(a)
	if l.Outstanding() != 0 {
		t.Fatalf("outstanding %d after Put, want 0", l.Outstanding())
	}
	var got *rec
	for i := 0; got != a; i++ {
		if i > 1000 {
			t.Fatal("released record never handed out again")
		}
		if got = l.Get(); got != a {
			l.Put(got) // pushes a through the pooldebug quarantine
		}
	}
	if got.n != 0 || got.bound() != 0 {
		t.Fatalf("reused record not reset: n=%d", got.n)
	}
	got.n = 3
	if got.bound() != 3 {
		t.Fatal("handler bound by New does not see its own record")
	}
}

// TestRefReleaseLast: Release reports the last holder, and one Release
// more than the holders panics naming the kind, in every build.
func TestRefReleaseLast(t *testing.T) {
	var r Ref
	r.Init(2)
	r.Retain()
	for i, want := range []bool{false, false, true} {
		if got := r.Release("pool.rec"); got != want {
			t.Fatalf("release %d reported last=%v, want %v", i, got, want)
		}
	}
	mustPanic(t, "pool.rec released twice", func() { r.Release("pool.rec") })
}
