package conform

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"adapt/internal/comm"
	"adapt/internal/hwloc"
	"adapt/internal/netmodel"
	"adapt/internal/nettransport"
	"adapt/internal/noise"
	"adapt/internal/runtime"
	"adapt/internal/serve"
	"adapt/internal/sim"
	"adapt/internal/simmpi"
)

// TestRecvIntoMatchesRecv holds every substrate — simulator, live
// runtime, TCP and the daemon proxy — to recvIntoProbe's property: a
// receive posted into a caller's buffer delivers exactly the bytes,
// size and elision a plain receive of the same message delivers, lands
// them in that buffer, and fails a message longer than the buffer with
// a *comm.TruncateError naming rank, peer and tag; and every substrate
// sees the same outcomes.
func TestRecvIntoMatchesRecv(t *testing.T) {
	got := map[string][]recvOutcome{}
	probe := func(name string, run func(body func(c comm.Comm))) {
		var mu sync.Mutex
		run(func(c comm.Comm) {
			if out := recvIntoProbe(c); c.Rank() == 1 {
				mu.Lock()
				got[name] = out
				mu.Unlock()
			}
		})
	}
	probe("simmpi", func(body func(c comm.Comm)) {
		k := sim.New()
		p := netmodel.Cori(1).WithTopo(hwloc.New(2, 1, 1))
		p.EagerLimit = runtime.DefaultEagerLimit
		w := simmpi.NewWorld(k, p, noise.None)
		w.Spawn(func(c *simmpi.Comm) { body(c) })
		if _, err := k.Run(); err != nil {
			t.Fatalf("simmpi: %v", err)
		}
	})
	probe("runtime", func(body func(c comm.Comm)) {
		runtime.NewWorld(2).Run(func(c *runtime.Comm) { body(c) })
	})
	probe("tcp", func(body func(c comm.Comm)) {
		w, err := nettransport.NewLocalWorld(2)
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		w.WithRunTimeout(30 * time.Second).Run(func(c *nettransport.Comm) { body(c) })
	})
	probe("daemon", func(body func(c comm.Comm)) {
		srv, err := serve.New(serve.Config{DrainTimeout: 5 * time.Second})
		if err != nil {
			t.Fatalf("serve.New: %v", err)
		}
		defer srv.Close()
		var wg sync.WaitGroup
		for r := 0; r < 2; r++ {
			s, err := serve.Dial(srv.Addr(), serve.SessionOpts{World: 2, Group: "recvinto", ProxyRank: r})
			if err != nil {
				t.Fatalf("Dial rank %d: %v", r, err)
			}
			defer s.Close()
			wg.Add(1)
			go func() {
				defer wg.Done()
				body(s.Comm())
			}()
		}
		wg.Wait()
	})

	ref := got["simmpi"]
	if want := 4 * len(recvIntoSpecs); len(ref) != want {
		t.Fatalf("simmpi: %d receives, want %d", len(ref), want)
	}
	for name, out := range got {
		for j, o := range out {
			sp := recvIntoSpecs[j/2%len(recvIntoSpecs)]
			what := fmt.Sprintf("%s receive %d (%d bytes, elided %v, IrecvInto %v)", name, j, sp.size, sp.elided, j%2 == 1)
			if d := outcomeDiff(ref[j], o); d != "" {
				t.Errorf("%s differs from simmpi: %s", what, d)
			}
			if j%2 == 0 || !sp.short {
				if o.Err != "" {
					t.Errorf("%s: %s", what, o.Err)
				}
				if plain := out[j&^1]; j%2 == 1 && outcomeDiff(plain, recvOutcome{Tag: plain.Tag, Size: o.Size,
					Data: o.Data, Elided: o.Elided}) != "" {
					t.Errorf("%s: IrecvInto delivered %d bytes (elided %v), Irecv %d (elided %v)",
						what, len(o.Data), o.Elided, len(plain.Data), plain.Elided)
				}
				if want := j%2 == 1 && !sp.elided && sp.size > 0; o.Aliases != want {
					t.Errorf("%s: payload in the posted buffer %v, want %v", what, o.Aliases, want)
				}
				continue
			}
			want := (&comm.TruncateError{Rank: 1, Peer: 0, Tag: o.Tag, Size: sp.size, Cap: sp.size / 2}).Error()
			if o.Err != want || o.Data != nil {
				t.Errorf("%s: error %q with %d bytes, want %q and none", what, o.Err, len(o.Data), want)
			}
		}
	}
}

// outcomeDiff describes how two receive outcomes differ, or returns "".
func outcomeDiff(a, b recvOutcome) string {
	switch {
	case a.Tag != b.Tag:
		return fmt.Sprintf("tag %v vs %v", a.Tag, b.Tag)
	case a.Size != b.Size || a.Elided != b.Elided:
		return fmt.Sprintf("size %d elided %v vs %d elided %v", a.Size, a.Elided, b.Size, b.Elided)
	case !bytes.Equal(a.Data, b.Data):
		return fmt.Sprintf("payload differs at byte %d", firstDelta(a.Data, b.Data))
	case a.Aliases != b.Aliases:
		return fmt.Sprintf("in posted buffer %v vs %v", a.Aliases, b.Aliases)
	case a.Err != b.Err:
		return fmt.Sprintf("error %q vs %q", a.Err, b.Err)
	}
	return ""
}

// recvOutcome is one receive of recvIntoProbe, as the receiving rank saw
// it.
type recvOutcome struct {
	Tag     comm.Tag
	Size    int
	Data    []byte // a copy of the delivered bytes
	Elided  bool
	Aliases bool   // the payload lies in the posted buffer (IrecvInto)
	Err     string // the status error's text
}

// recvIntoSpec is one message of the probe: its size, whether its
// payload is elided, and the posted buffer's length for its IrecvInto
// copy (the size itself plus slack, or short of it).
type recvIntoSpec struct {
	size   int
	elided bool
	short  bool
}

var recvIntoSpecs = []recvIntoSpec{
	{0, false, false}, {1, false, false}, {100, false, false},
	{8 << 10, false, false}, {8<<10 + 1, false, false}, {20000, false, false},
	{5000, true, false}, {20000, true, false},
	{300, false, true}, {20000, false, true}, {300, true, true}, {20000, true, true},
}

// recvIntoProbe is the receive-into property every substrate must hold,
// run on a 2-rank world: rank 0 sends each message of a list twice, and
// rank 1 takes one copy with Irecv and the other with IrecvInto —
// eager and rendezvous sizes, elided payloads, and buffers too short
// for their message — once with every receive posted before the sends
// and once with every message arriving unexpected. Rank 1 returns its
// receives in order: Irecv's and IrecvInto's copy of message i at 2i
// and 2i+1, the posted round first. Other ranks return nil.
func recvIntoProbe(c comm.Comm) []recvOutcome {
	peer := 1 - c.Rank()
	tagOf := func(round, i int) comm.Tag { return comm.MakeTag(comm.KindP2P, 7, round*64+i) }
	flag := func(round int) comm.Tag { return tagOf(round, 63) }
	payload := func(sp recvIntoSpec, i int) comm.Msg {
		if sp.elided {
			return comm.Sized(sp.size)
		}
		return comm.Bytes(pattern(sp.size, int64(0x5EC0+i)))
	}
	if c.Rank() == 0 {
		var sends []comm.Request
		isendAll := func(round int) {
			for i, sp := range recvIntoSpecs {
				sends = append(sends, c.Isend(peer, tagOf(round, 2*i), payload(sp, i)),
					c.Isend(peer, tagOf(round, 2*i+1), payload(sp, i)))
			}
		}
		c.Recv(peer, flag(0)) // round 0: every receive is posted
		isendAll(0)
		isendAll(1) // round 1: nothing is posted until the flag
		c.Send(peer, flag(1), comm.Bytes([]byte{1}))
		c.WaitAll(sends)
		return nil
	}
	var out []recvOutcome
	bufs := make([][]byte, len(recvIntoSpecs))
	post := func(round int) []comm.Request {
		var rs []comm.Request
		for i, sp := range recvIntoSpecs {
			n := sp.size + 8
			if sp.short {
				n = sp.size / 2
			}
			bufs[i] = make([]byte, n)
			rs = append(rs, c.Irecv(peer, tagOf(round, 2*i)),
				c.IrecvInto(peer, tagOf(round, 2*i+1), bufs[i]))
		}
		return rs
	}
	collect := func(rs []comm.Request) {
		for j, r := range rs {
			st := c.Wait(r)
			o := recvOutcome{Tag: st.Tag, Size: st.Msg.Size, Elided: st.Msg.Elided(),
				Data: append([]byte(nil), st.Msg.Data...)}
			if buf := bufs[j/2]; j%2 == 1 && len(st.Msg.Data) > 0 {
				o.Aliases = &st.Msg.Data[0] == &buf[0]
			}
			if st.Err != nil {
				o.Err = st.Err.Error()
			}
			out = append(out, o)
		}
	}
	rs := post(0)
	c.Send(peer, flag(0), comm.Bytes([]byte{1}))
	collect(rs)
	c.Recv(peer, flag(1))
	collect(post(1))
	return out
}
