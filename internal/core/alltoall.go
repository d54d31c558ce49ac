package core

import (
	"fmt"

	"adapt/internal/comm"
)

// alltoallState is the event-driven pairwise-exchange alltoall: round r
// sends this rank's block for (me+r) mod n and receives the block from
// (me−r) mod n. Instead of running the n−1 rounds in lock-step, a window
// of SendWindow rounds is kept in flight and each round's completion
// starts the next — one round stalling (a slow or noisy partner) does not
// stop the rounds behind it in the window.
type alltoallState struct {
	c   comm.Comm
	opt Options
	n   int
	blk int

	in  []byte // input: n rank-ordered blocks (may be nil)
	out []byte // output: n rank-ordered blocks (may be nil)

	nextRound   int
	sendPending int
	recvPending int

	sentFn, recvFn func(comm.Status) // s.onSent / s.onRecv, bound once
}

// Alltoall performs the personalized all-to-all exchange: input holds n
// equally sized blocks in rank order (block d goes to rank d); the result
// holds block s from every rank s. input.Size must be divisible by the
// communicator size.
func Alltoall(c comm.Comm, input comm.Msg, opt Options) comm.Msg {
	return StartAlltoall(c, input, opt).Wait()
}

// StartAlltoall begins a non-blocking event-driven alltoall.
func StartAlltoall(c comm.Comm, input comm.Msg, opt Options) *Op {
	opt = opt.validate()
	n := c.Size()
	if input.Size%n != 0 {
		panic(fmt.Sprintf("core: alltoall buffer %dB not divisible by %d ranks", input.Size, n))
	}
	end := traceStart(c, comm.KindAlltoall, opt, -1, input.Size)
	s := newAlltoallState(c, input, opt)
	return end(&Op{
		c:       c,
		pending: func() bool { return s.recvPending > 0 || s.sendPending > 0 },
		result: func() comm.Msg {
			return comm.Msg{Data: s.out, Size: s.blk * s.n, Space: input.Space}
		},
	})
}

func newAlltoallState(c comm.Comm, input comm.Msg, opt Options) *alltoallState {
	n := c.Size()
	me := c.Rank()
	s := &alltoallState{c: c, opt: opt, n: n, blk: input.Size / n, in: input.Data}
	s.sentFn, s.recvFn = s.onSent, s.onRecv
	if input.Data != nil {
		s.out = make([]byte, input.Size)
		copy(s.out[me*s.blk:], input.Data[me*s.blk:(me+1)*s.blk]) // self block
	}
	if n == 1 {
		return s
	}
	s.sendPending = n - 1
	s.recvPending = n - 1
	s.nextRound = 1
	for i := 0; i < opt.SendWindow && s.nextRound < n; i++ {
		s.startRound()
	}
	return s
}

// startRound posts one exchange round's send and receive. The next round
// launches when this round's receive completes (receives are what a slow
// partner delays; sends complete at buffer reuse).
func (s *alltoallState) startRound() {
	r := s.nextRound
	s.nextRound++
	me := s.c.Rank()
	to := (me + r) % s.n
	from := (me - r + s.n) % s.n

	var payload comm.Msg
	payload.Size = s.blk
	if s.in != nil {
		payload.Data = s.in[to*s.blk : (to+1)*s.blk]
	}
	s.c.OnComplete(s.c.Isend(to, s.opt.TagOf(comm.KindAlltoall, r), payload), s.sentFn)
	s.c.OnComplete(s.c.Irecv(from, s.opt.TagOf(comm.KindAlltoall, r)), s.recvFn)
}

func (s *alltoallState) onSent(comm.Status) { s.sendPending-- }

// onRecv lands the block of the round's partner, named by the status.
func (s *alltoallState) onRecv(st comm.Status) {
	s.recvPending--
	if st.Msg.Data != nil {
		if s.out == nil {
			s.out = make([]byte, s.blk*s.n)
		}
		copy(s.out[st.Source*s.blk:], st.Msg.Data)
	}
	if s.nextRound < s.n {
		s.startRound()
	}
}
