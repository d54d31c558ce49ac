//go:build !pooldebug

// The reuse-order test pins the default build: under pooldebug the
// quarantine holds a released request back from the next post.

package progress

import (
	"testing"

	"adapt/internal/comm"
)

// TestReqRecycledAfterCallbackAndRelease pins the request lifetime
// rule: a request whose callback fired is handed out again by the next
// PostRecv or StartSend on its engine, zeroed — but only once the
// substrate has released its reference too.
func TestReqRecycledAfterCallbackAndRelease(t *testing.T) {
	const tag = comm.Tag(7)
	eng, held := heldEngine(t)
	r := eng.PostRecv(1, tag, comm.MemDefault)
	fired := 0
	eng.OnComplete(r, func(comm.Status) { fired++ })
	eng.Arrive(&Env{Src: 1, Tag: tag, Msg: comm.Msg{Size: 8}})
	r.Xid = 9 // substrate protocol state, which recycling must clear
	if eng.TryProgress(); fired != 1 {
		t.Fatalf("callback fired %d times, want 1", fired)
	}
	if again := eng.PostRecv(1, tag, comm.MemDefault); again == r {
		t.Fatal("request reused while the substrate still holds a reference")
	}
	(*held)[0].Release()
	again := eng.PostRecv(2, tag, comm.MemDefault)
	if again != r {
		t.Fatal("request released by both holders was not handed out again")
	}
	if again.done || again.cb != nil || again.Xid != 0 || again.status.Msg.Size != 0 ||
		again.Src != 2 || again.ref.Count() != 2 {
		t.Fatalf("recycled request not reset: %+v", *again)
	}

	// The send side follows the same rule.
	s := eng.StartSend(1, tag, 8)
	eng.OnComplete(s, func(comm.Status) {})
	s.Complete(comm.Status{Source: 0, Tag: tag})
	s.Release() // the substrate is done with it
	if again := eng.StartSend(1, tag, 8); again == s {
		t.Fatal("send reused before its callback fired")
	}
	eng.TryProgress()
	if again := eng.StartSend(1, tag, 8); again != s || !again.isSend || again.done {
		t.Fatal("released send was not handed out again as a fresh send")
	}
}
