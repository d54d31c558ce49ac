package progress

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"adapt/internal/comm"
)

// heldEngine builds a single-threaded engine whose OnMatch completes the
// receive at once but keeps the substrate's reference in *held, so each
// test decides when the substrate is finished with a request.
func heldEngine(t *testing.T) (*Engine, *[]*Req) {
	t.Helper()
	var held []*Req
	eng := New(Backend{
		Prefix: "lifetime", Rank: 0,
		Now:            func() time.Duration { return 0 },
		Wake:           func() {},
		Block:          func() { t.Fatal("test script must never block") },
		SingleThreaded: true,
		OnMatch: func(req *Req, env *Env, wasUnexpected bool) {
			req.Complete(comm.Status{Source: env.Src, Tag: env.Tag, Msg: env.Msg})
			held = append(held, req)
		},
	})
	return eng, &held
}

// TestReqWithoutCallbackNeverReused: a handle that is waited on, tested
// or canceled instead of handed to OnComplete keeps its reference, so
// its request is never recycled and keeps reading back its status.
func TestReqWithoutCallbackNeverReused(t *testing.T) {
	const tag = comm.Tag(3)
	arrive := func(eng *Engine) { eng.Arrive(&Env{Src: 1, Tag: tag}) }
	for _, tc := range []struct {
		name string
		use  func(eng *Engine, r *Req)
	}{
		{"Wait", func(eng *Engine, r *Req) { arrive(eng); eng.Wait(r) }},
		{"WaitAll", func(eng *Engine, r *Req) { arrive(eng); eng.WaitAll([]comm.Request{r}) }},
		{"Test", func(eng *Engine, r *Req) { arrive(eng); r.Test() }},
		{"CancelRecv", func(eng *Engine, r *Req) {
			if !eng.CancelRecv(r) {
				t.Fatal("cancel of a posted receive failed")
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, held := heldEngine(t)
			r := eng.PostRecv(1, tag, comm.MemDefault)
			tc.use(eng, r)
			for _, h := range *held {
				h.Release()
			}
			eng.TryProgress()
			for i := 0; i < 4; i++ {
				if eng.PostRecv(1, tag, comm.MemDefault) == r {
					t.Fatal("request reused although its handle is still held")
				}
			}
			if _, done := r.Test(); !done {
				t.Fatal("held handle no longer reads back done")
			}
		})
	}
}

// TestReqReleasedTwicePanics: one Release more than the references a
// request holds is a bug, reported at once.
func TestReqReleasedTwicePanics(t *testing.T) {
	eng, _ := heldEngine(t)
	s := eng.StartSend(1, comm.Tag(1), 8)
	eng.OnComplete(s, func(comm.Status) {})
	s.Complete(comm.Status{})
	s.Release()
	eng.TryProgress() // the callback fires and the handle's reference goes
	defer func() {
		if p := recover(); p == nil || !strings.Contains(fmt.Sprint(p), "progress.Req released twice") {
			t.Fatalf("second release: recovered %v, want a released-twice panic", p)
		}
	}()
	s.Release()
}

// TestCanceledStatusNamesSourceAndTag: collectives bind one receive
// handler per state and decode child and segment from the status, so a
// canceled receive must carry its posted source and tag too.
func TestCanceledStatusNamesSourceAndTag(t *testing.T) {
	eng, _ := heldEngine(t)
	tag := comm.MakeTag(comm.KindReduce, 4, 17)
	r := eng.PostRecv(5, tag, comm.MemDefault)
	eng.CancelRecv(r)
	st, _ := r.Test()
	if st.Source != 5 || st.Tag != tag || st.Err != ErrCanceled {
		t.Fatalf("canceled status %+v, want source 5, tag %v, ErrCanceled", st, tag)
	}
}
