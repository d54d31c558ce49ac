//go:build !race && !pooldebug

package progress

import (
	"testing"
	"time"

	"adapt/internal/comm"
)

// TestRecvCycleZeroAlloc: on a SingleThreaded engine the steady-state
// receive cycle — PostRecv, Arrive, OnMatch, Complete, DrainWhile —
// recycles its request and envelope and allocates nothing. (Excluded
// under -race, which instruments allocations, and under pooldebug,
// whose quarantine holds released records back from reuse.)
func TestRecvCycleZeroAlloc(t *testing.T) {
	const tag = comm.Tag(11)
	var eng *Engine
	eng = New(Backend{
		Prefix: "alloc", Rank: 0,
		Now:            func() time.Duration { return 0 },
		Wake:           func() {},
		Block:          func() { t.Fatal("test script must never block") },
		SingleThreaded: true,
		OnMatch: func(req *Req, env *Env, wasUnexpected bool) {
			req.Complete(comm.Status{Source: env.Src, Tag: env.Tag, Msg: env.Msg})
			eng.FreeEnv(env)
			req.Release()
		},
	})
	fired := 0
	cb := func(comm.Status) { fired++ }
	always := func() bool { return true }
	cycle := func() {
		r := eng.PostRecv(1, tag, comm.MemDefault)
		eng.OnComplete(r, cb)
		eng.Arrive(eng.NewEnv(1, tag, comm.Msg{Size: 8}, nil))
		eng.DrainWhile(always)
	}
	cycle() // warm the free-lists and queues
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("receive cycle allocates %.1f objects, want 0", n)
	}
	if fired != 102 {
		t.Fatalf("callbacks fired %d times, want 102", fired)
	}
}
