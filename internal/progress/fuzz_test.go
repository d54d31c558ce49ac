package progress

import (
	"testing"
	"time"

	"adapt/internal/comm"
	"adapt/internal/trace"
)

// FuzzMatch drives the matching core through random interleavings of
// recv posts (concrete and wildcard), eager and rendezvous arrivals,
// duplicate transmissions, and cancellations, then checks the invariants
// every substrate depends on:
//
//   - an accepted envelope is matched EXACTLY once — never zero times
//     (lost message), never twice (double delivery);
//   - with DedupXids, a replayed transmission id is always suppressed;
//   - the unexpected queue fully drains once enough wildcard receives
//     are posted — nothing parks forever;
//   - after the drain and cancellations, no operations remain in flight;
//   - with recycling on — the substrate releases its references, and some
//     receives hand their handle to OnComplete — every callback fires
//     exactly once, with a status its posted source and tag match, even
//     when its request is reused by a later post.
//
// The script is single-threaded (substrate-owner discipline), so Block
// must never fire.
func FuzzMatch(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 2, 3, 1, 0, 0, 3, 2, 1})          // post, arrive, wildcard, rdv
	f.Add([]byte{1, 2, 0, 0, 2, 1, 1, 4, 3, 3, 5, 0, 0})       // dedup mode with a replay
	f.Add([]byte{0, 5, 1, 1, 0, 0, 0, 2, 3, 3, 1, 2, 4, 0, 1}) // cancel racing a match
	// cancel-then-rendezvous-then-cancel: a retracted receive must read
	// back ErrCanceled, the freed slot must not swallow the later
	// rendezvous, and a second cancel after the match must lose.
	f.Add([]byte{0, 0, 1, 2, 5, 0, 0, 3, 1, 2, 1, 0, 2, 5, 1, 0, 2, 1, 2, 0, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		dedup := data[0]&1 == 1
		script := data[1:]

		matched := map[*Env]int{}
		onMatch := func(req *Req, env *Env, wasUnexpected bool) {
			matched[env]++
			if matched[env] > 1 {
				t.Fatalf("envelope %p matched %d times", env, matched[env])
			}
			if env.Rts != nil {
				env.Rts.Complete(comm.Status{Source: env.Src, Tag: env.Tag})
				env.Rts.Release()
			}
			req.Complete(comm.Status{Source: env.Src, Tag: env.Tag, Msg: env.Msg})
			req.Release()
		}
		eng := New(Backend{
			Prefix: "fuzz", Rank: 0,
			Now:       func() time.Duration { return 0 },
			Trace:     func() *trace.Buffer { return nil },
			Wake:      func() {},
			Block:     func() { t.Fatal("single-threaded script must never block") },
			OnMatch:   onMatch,
			DedupXids: dedup,
		})

		var recvs []*Req   // every posted receive kept as a handle
		var arrived []*Env // envelopes the engine accepted (not suppressed)
		var xid uint64
		// Receives whose handle went to OnComplete, until their callback
		// fires: the handle is dead afterwards and its request may be
		// reused.
		unfired := map[int]*Req{}
		fired := map[int]int{}
		post := func(src int, tag comm.Tag, withCallback bool) {
			r := eng.PostRecv(src, tag, comm.MemDefault)
			if !withCallback {
				recvs = append(recvs, r)
				return
			}
			id := len(fired) + len(unfired)
			unfired[id] = r
			eng.OnComplete(r, func(st comm.Status) {
				delete(unfired, id)
				if fired[id]++; fired[id] > 1 {
					t.Fatalf("callback %d fired %d times", id, fired[id])
				}
				if (src != comm.AnySource && st.Source != src) || !tag.Matches(st.Tag) {
					t.Fatalf("callback %d for (%d, %v) got status from (%d, %v)", id, src, tag, st.Source, st.Tag)
				}
			})
		}

		for i := 0; i+2 < len(script); i += 3 {
			op, a, b := script[i], script[i+1], script[i+2]
			src := int(a % 4)
			tag := comm.Tag(b % 4)
			switch op % 6 {
			case 0: // concrete receive, its handle kept or handed to a callback
				post(src, tag, b&4 != 0)
			case 1: // wildcard receive (any-source, maybe any-tag)
				tg := tag
				if a&1 == 0 {
					tg = comm.AnyTag
				}
				post(comm.AnySource, tg, a&4 != 0)
			case 2: // eager arrival, fresh transmission id
				xid++
				env := &Env{Src: src, Tag: tag, Msg: comm.Msg{Size: 16}, Xid: xid}
				switch eng.Arrive(env) {
				case ArriveMatched:
					if matched[env] != 1 {
						t.Fatal("ArriveMatched without OnMatch")
					}
					arrived = append(arrived, env)
				case ArriveParked:
					arrived = append(arrived, env)
				default:
					t.Fatal("fresh arrival neither matched nor parked")
				}
			case 3: // rendezvous arrival carrying its sender's request
				xid++
				send := eng.StartSend(0, tag, 1<<20)
				env := &Env{Src: src, Tag: tag, Msg: comm.Msg{Size: 1 << 20},
					Rts: send, Rdv: true, Xid: xid}
				if res := eng.Arrive(env); res == ArriveMatched || res == ArriveParked {
					arrived = append(arrived, env)
					if _, ok := send.Test(); res == ArriveMatched && !ok {
						t.Fatal("matched rendezvous left its send incomplete")
					}
				} else {
					t.Fatal("fresh rendezvous neither matched nor parked")
				}
			case 4: // duplicate: replay an already-used transmission id
				if xid == 0 {
					continue
				}
				old := uint64(a)%xid + 1
				env := &Env{Src: src, Tag: tag, Msg: comm.Msg{Size: 16}, Xid: old}
				res := eng.Arrive(env)
				if dedup {
					if res != ArriveDuplicate {
						t.Fatalf("replayed xid %d came back %v, want suppressed", old, res)
					}
				} else if res == ArriveMatched || res == ArriveParked {
					arrived = append(arrived, env) // without dedup it is a real message
				}
			case 5: // cancel a receive; both outcomes (retracted, too late) legal
				if len(recvs) == 0 {
					continue
				}
				r := recvs[int(a)%len(recvs)]
				retracted := eng.CancelRecv(r)
				st, settled := r.Test()
				if retracted && (!settled || st.Err != ErrCanceled) {
					t.Fatalf("retracted receive reads %+v settled=%v, want ErrCanceled", st, settled)
				}
			}
			eng.TryProgress() // fire callbacks, recycling their requests
		}

		// Quiesce: wildcard receives must drain every parked envelope.
		for guard := 0; ; guard++ {
			_, _, unexpected := eng.Snapshot()
			if len(unexpected) == 0 {
				break
			}
			if guard > len(script)+8 {
				t.Fatalf("unexpected queue stuck at %d envelopes", len(unexpected))
			}
			if _, ok := eng.PostRecv(comm.AnySource, comm.AnyTag, comm.MemDefault).Test(); !ok {
				t.Fatal("wildcard receive failed to consume a parked envelope")
			}
		}
		for _, env := range arrived {
			if matched[env] != 1 {
				t.Fatalf("accepted envelope matched %d times, want exactly once", matched[env])
			}
		}
		// Retire unmatched receives; nothing may remain in flight.
		eng.TryProgress()
		for _, r := range recvs {
			if _, ok := r.Test(); !ok {
				eng.CancelRecv(r)
			}
		}
		for id, r := range unfired {
			if !eng.CancelRecv(r) {
				t.Fatalf("callback %d never fired, yet its receive cannot be retracted", id)
			}
		}
		if p := eng.Pending(); p != 0 {
			t.Fatalf("quiesced engine reports %d operations in flight", p)
		}
	})
}
