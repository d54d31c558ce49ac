package nettransport

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"
	"time"

	"adapt/internal/coll"
	"adapt/internal/comm"
	"adapt/internal/core"
	"adapt/internal/trees"
)

const testTimeout = 30 * time.Second

func newTestWorld(t *testing.T, n int, opts ...Option) *LocalWorld {
	t.Helper()
	w, err := NewLocalWorld(n, opts...)
	if err != nil {
		t.Fatalf("NewLocalWorld(%d): %v", n, err)
	}
	t.Cleanup(w.Close)
	return w.WithRunTimeout(testTimeout)
}

func fill(n int, salt byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)*7 + salt
	}
	return b
}

// lattice mirrors internal/conform's reduction inputs: float64 small
// integers whose sums are exact, so byte comparison is well-defined.
func lattice(rank, size int) []byte {
	b := make([]byte, size)
	for i := 0; i < size/8; i++ {
		v := float64((rank*31 + i) % 17)
		binary.LittleEndian.PutUint64(b[i*8:], math.Float64bits(v))
	}
	return b
}

// latticeSum is the expected allreduce result over n rank lattices.
func latticeSum(n, size int) []byte {
	b := make([]byte, size)
	for i := 0; i < size/8; i++ {
		var s float64
		for r := 0; r < n; r++ {
			s += float64((r*31 + i) % 17)
		}
		binary.LittleEndian.PutUint64(b[i*8:], math.Float64bits(s))
	}
	return b
}

func TestEagerSendRecv(t *testing.T) {
	w := newTestWorld(t, 2)
	payload := fill(1024, 3)
	tag := comm.MakeTag(comm.KindP2P, 0, 0)
	w.Run(func(c *Comm) {
		switch c.Rank() {
		case 0:
			c.Send(1, tag, comm.Bytes(payload))
		case 1:
			st := c.Recv(0, tag)
			if st.Err != nil {
				t.Errorf("recv: %v", st.Err)
			}
			if st.Source != 0 || st.Tag != tag {
				t.Errorf("recv status src=%d tag=%v", st.Source, st.Tag)
			}
			if !bytes.Equal(st.Msg.Data, payload) {
				t.Error("payload corrupted in flight")
			}
		}
	})
}

func TestRendezvousSendRecv(t *testing.T) {
	w := newTestWorld(t, 2)
	payload := fill(DefaultEagerLimit*4, 9) // well above the eager limit
	tag := comm.MakeTag(comm.KindP2P, 1, 0)
	w.Run(func(c *Comm) {
		switch c.Rank() {
		case 0:
			// Post the recv late so the RTS parks in the unexpected queue.
			time.Sleep(5 * time.Millisecond)
			st := c.Recv(1, tag)
			if !bytes.Equal(st.Msg.Data, payload) {
				t.Error("rendezvous payload corrupted")
			}
		case 1:
			buf := append([]byte(nil), payload...)
			c.Send(0, tag, comm.Bytes(buf))
			// The blocking send implies the receiver matched: scribbling on
			// the buffer now must not corrupt what was delivered.
			for i := range buf {
				buf[i] = 0xFF
			}
		}
	})
}

// TestConcurrentRendezvousEqualXids: every endpoint numbers its
// transmissions from the same start, so two senders' first rendezvous
// sends carry equal xids. With both announcements matched before either
// payload streams, the receiver holds two parked pulls at once and must
// tell them apart by sender.
func TestConcurrentRendezvousEqualXids(t *testing.T) {
	w := newTestWorld(t, 3).WithRunTimeout(10 * time.Second)
	tag := comm.MakeTag(comm.KindP2P, 2, 0)
	payload := func(src int) []byte { return fill(DefaultEagerLimit*4, byte(src)) }
	w.Run(func(c *Comm) {
		if c.Rank() != 0 {
			c.Send(0, tag, comm.Bytes(payload(c.Rank())))
			return
		}
		// Both announcements park unexpected first, so the two receives
		// match back to back and both pulls are outstanding together.
		c.Probe(1, tag)
		c.Probe(2, tag)
		reqs := []comm.Request{c.Irecv(1, tag), c.Irecv(2, tag)}
		for i, r := range reqs {
			src := i + 1
			st := c.Wait(r)
			if st.Err != nil || st.Source != src || !bytes.Equal(st.Msg.Data, payload(src)) {
				t.Errorf("recv from %d: source %d err %v, payload intact %v",
					src, st.Source, st.Err, bytes.Equal(st.Msg.Data, payload(src)))
			}
		}
	})
}

// TestEagerBoundary sends exactly DefaultEagerLimit bytes (the largest
// eager message) and one byte more (the smallest rendezvous message):
// both must arrive intact, whichever protocol carries them.
func TestEagerBoundary(t *testing.T) {
	for _, sz := range []int{DefaultEagerLimit, DefaultEagerLimit + 1} {
		sz := sz
		t.Run(fmt.Sprintf("size%d", sz), func(t *testing.T) {
			w := newTestWorld(t, 2)
			payload := fill(sz, byte(sz))
			tag := comm.MakeTag(comm.KindP2P, 2, 0)
			w.Run(func(c *Comm) {
				switch c.Rank() {
				case 0:
					c.Send(1, tag, comm.Bytes(payload))
				case 1:
					st := c.Recv(0, tag)
					if !bytes.Equal(st.Msg.Data, payload) {
						t.Errorf("size %d corrupted", sz)
					}
				}
			})
		})
	}
}

func TestZeroSizeAndElided(t *testing.T) {
	w := newTestWorld(t, 2)
	tagZ := comm.MakeTag(comm.KindP2P, 3, 0)
	tagE := comm.MakeTag(comm.KindP2P, 3, 1)
	tagR := comm.MakeTag(comm.KindP2P, 3, 2)
	w.Run(func(c *Comm) {
		switch c.Rank() {
		case 0:
			c.Send(1, tagZ, comm.Msg{})                      // zero-size
			c.Send(1, tagE, comm.Sized(4096))                // elided eager
			c.Send(1, tagR, comm.Sized(DefaultEagerLimit*2)) // elided rendezvous
		case 1:
			if st := c.Recv(0, tagZ); st.Msg.Size != 0 || st.Msg.Elided() {
				t.Errorf("zero-size came back %v", st.Msg)
			}
			if st := c.Recv(0, tagE); !st.Msg.Elided() || st.Msg.Size != 4096 {
				t.Errorf("elided eager came back %v", st.Msg)
			}
			if st := c.Recv(0, tagR); !st.Msg.Elided() || st.Msg.Size != DefaultEagerLimit*2 {
				t.Errorf("elided rendezvous came back %v", st.Msg)
			}
		}
	})
}

func TestAnySourceAndProbe(t *testing.T) {
	w := newTestWorld(t, 3)
	tag := comm.MakeTag(comm.KindP2P, 4, 0)
	w.Run(func(c *Comm) {
		switch c.Rank() {
		case 0:
			seen := map[int]bool{}
			for i := 0; i < 2; i++ {
				st := c.Recv(comm.AnySource, tag)
				seen[st.Source] = true
			}
			if !seen[1] || !seen[2] {
				t.Errorf("AnySource saw %v", seen)
			}
		default:
			c.Send(0, tag, comm.Bytes([]byte{byte(c.Rank())}))
		}
	})
}

func TestCallbacksAndWaitAny(t *testing.T) {
	w := newTestWorld(t, 2)
	tag := func(seg int) comm.Tag { return comm.MakeTag(comm.KindP2P, 5, seg) }
	const k = 8
	w.Run(func(c *Comm) {
		switch c.Rank() {
		case 0:
			// OnComplete takes over each handle, so the callbacks are
			// driven by Progress rather than by waiting on the handles.
			fired := 0
			for i := 0; i < k; i++ {
				c.OnComplete(c.Irecv(1, tag(i)), func(comm.Status) { fired++ })
			}
			for fired < k {
				c.Progress()
			}
		case 1:
			var reqs []comm.Request
			for i := 0; i < k; i++ {
				reqs = append(reqs, c.Isend(0, tag(i), comm.Bytes(fill(512, byte(i)))))
			}
			for len(reqs) > 0 {
				i, _ := c.WaitAny(reqs)
				reqs = append(reqs[:i], reqs[i+1:]...)
			}
		}
	})
}

func TestCollectivesOnTCP(t *testing.T) {
	const n, size = 4, 64 * 1024
	w := newTestWorld(t, n)
	binom := trees.Binomial(n, 0)
	opt := core.Options{SegSize: 8 * 1024, Seq: 7}

	src := fill(size, 42)
	t.Run("bcast", func(t *testing.T) {
		w.Run(func(c *Comm) {
			in := comm.Sized(size)
			if c.Rank() == 0 {
				in = comm.Bytes(append([]byte(nil), src...))
			}
			out := core.Bcast(c, binom, in, opt)
			if !bytes.Equal(out.Data, src) {
				t.Errorf("rank %d: bcast diverged", c.Rank())
			}
		})
	})

	opt.Seq = 8
	t.Run("allreduce", func(t *testing.T) {
		w.Run(func(c *Comm) {
			in := lattice(c.Rank(), size)
			want := latticeSum(n, size)
			out := core.Allreduce(c, binom, comm.Bytes(in), opt)
			if !bytes.Equal(out.Data, want) {
				t.Errorf("rank %d: allreduce diverged", c.Rank())
			}
		})
	})

	opt.Seq = 9
	t.Run("barrier", func(t *testing.T) {
		w.Run(func(c *Comm) {
			coll.Barrier(c, opt.Seq)
		})
	})
}

func TestManySmallMessagesStress(t *testing.T) {
	const n, rounds = 3, 200
	w := newTestWorld(t, n)
	w.Run(func(c *Comm) {
		next := (c.Rank() + 1) % n
		prev := (c.Rank() + n - 1) % n
		for i := 0; i < rounds; i++ {
			tag := comm.MakeTag(comm.KindP2P, 6, i)
			r := c.Irecv(prev, tag)
			c.Send(next, tag, comm.Bytes([]byte{byte(i), byte(c.Rank())}))
			st := c.Wait(r)
			if st.Msg.Data[0] != byte(i) || st.Msg.Data[1] != byte(prev) {
				t.Errorf("rank %d round %d: got %v", c.Rank(), i, st.Msg.Data)
			}
		}
	})
}
