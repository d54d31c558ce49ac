package faults

import (
	"sort"
	"testing"
	"time"

	"adapt/internal/trace"
)

// fakeClock is a manual Clock: After queues, advance fires what is due
// in (deadline, arming order).
type fakeClock struct {
	now     time.Duration
	pending []fakeTimer
	armed   int
}

type fakeTimer struct {
	at  time.Duration
	seq int
	fn  func()
}

func (fc *fakeClock) clock() Clock {
	return Clock{
		After: func(d time.Duration, fn func()) {
			fc.armed++
			fc.pending = append(fc.pending, fakeTimer{at: fc.now + d, seq: fc.armed, fn: fn})
		},
		Now: func() time.Duration { return fc.now },
	}
}

func (fc *fakeClock) advance(to time.Duration) {
	for {
		sort.Slice(fc.pending, func(i, j int) bool {
			a, b := fc.pending[i], fc.pending[j]
			return a.at < b.at || a.at == b.at && a.seq < b.seq
		})
		if len(fc.pending) == 0 || fc.pending[0].at > to {
			fc.now = to
			return
		}
		t := fc.pending[0]
		fc.pending = fc.pending[1:]
		fc.now = t.at
		t.fn()
	}
}

func testLeases() Recovery {
	r := DefaultRecovery()
	r.SuspectAfter = 10 * time.Microsecond
	r.ConfirmAfter = 30 * time.Microsecond
	return r
}

func TestPlaneLeaseOrder(t *testing.T) {
	var fc fakeClock
	tb := &trace.Buffer{}
	var confirmed []int
	d := NewPlane(4, -1, nil, testLeases(), fc.clock(), func() *trace.Buffer { return tb },
		func(peer int) { confirmed = append(confirmed, peer) })

	fc.advance(5 * time.Microsecond)
	if !d.Lost(2) {
		t.Fatal("first Lost(2) reported the peer already lost")
	}
	if !d.Down(2) || d.Confirmed(2) {
		t.Fatalf("after Lost: down=%v confirmed=%v, want true/false", d.Down(2), d.Confirmed(2))
	}
	fc.advance(14 * time.Microsecond)
	if st := d.Stats(); st != (DetectorStats{}) {
		t.Fatalf("before the suspicion lease: %+v", st)
	}
	fc.advance(15 * time.Microsecond)
	if st := d.Stats(); st != (DetectorStats{Suspects: 1}) || d.Confirmed(2) || len(confirmed) != 0 {
		t.Fatalf("at the suspicion lease: %+v confirmed=%v calls=%v", st, d.Confirmed(2), confirmed)
	}
	fc.advance(35 * time.Microsecond)
	if st := d.Stats(); st != (DetectorStats{Suspects: 1, Confirms: 1, Repairs: 1}) {
		t.Fatalf("at the confirmation lease: %+v", st)
	}
	if len(confirmed) != 1 || confirmed[0] != 2 {
		t.Fatalf("confirm action calls = %v, want [2]", confirmed)
	}
	mask := d.ConfirmedMask(4)
	if !mask[2] || mask[0] || mask[1] || mask[3] {
		t.Fatalf("confirmed mask %v", mask)
	}

	recs := tb.Records
	want := []struct {
		kind trace.Kind
		at   time.Duration
	}{{trace.Suspect, 15 * time.Microsecond}, {trace.Confirm, 35 * time.Microsecond}, {trace.Repair, 35 * time.Microsecond}}
	if len(recs) != len(want) {
		t.Fatalf("trace has %d records, want %d", len(recs), len(want))
	}
	for i, w := range want {
		if r := recs[i]; r.Kind != w.kind || r.At != w.at || r.Rank != -1 || r.Peer != 2 {
			t.Errorf("record %d = %+v, want kind %v at %v rank -1 peer 2", i, r, w.kind, w.at)
		}
	}
}

func TestPlaneLostIdempotent(t *testing.T) {
	var fc fakeClock
	calls := 0
	d := NewPlane(3, 0, nil, testLeases(), fc.clock(), nil, func(int) { calls++ })
	if !d.Lost(1) {
		t.Fatal("first Lost(1) = false")
	}
	fc.advance(20 * time.Microsecond) // suspected, not yet confirmed
	if d.Lost(1) {
		t.Fatal("second Lost(1) while suspected = true")
	}
	fc.advance(time.Second)
	if d.Lost(1) {
		t.Fatal("Lost(1) after confirmation = true")
	}
	if fc.armed != 2 {
		t.Fatalf("%d leases armed, want one suspicion and one confirmation", fc.armed)
	}
	if st := d.Stats(); st != (DetectorStats{Suspects: 1, Confirms: 1, Repairs: 1}) || calls != 1 {
		t.Fatalf("stats %+v, confirm calls %d", st, calls)
	}
}

func TestPlaneStopDisarms(t *testing.T) {
	var fc fakeClock
	calls := 0
	d := NewPlane(2, 0, nil, testLeases(), fc.clock(), nil, func(int) { calls++ })
	d.Lost(1)
	d.Stop()
	if !d.Down(1) {
		t.Fatal("Stop forgot a loss already reported")
	}
	fc.advance(time.Second)
	if st := d.Stats(); st != (DetectorStats{}) || calls != 0 || d.Confirmed(1) {
		t.Fatalf("stopped detector acted: %+v, %d confirm calls", st, calls)
	}
	if d.Lost(0) {
		t.Fatal("Lost after Stop = true")
	}
}

func TestNilPlane(t *testing.T) {
	var p *Plane
	if p.NoteSend(0) || p.Dead(0) || p.Down(0) || p.Confirmed(0) || p.Stats() != (DetectorStats{}) {
		t.Fatal("nil plane reported activity")
	}
	if len(p.DeadMask(3)) != 3 || len(p.ConfirmedMask(3)) != 3 {
		t.Fatal("nil plane masks have the wrong size")
	}
}

// TestPlaneNoteSendBoundary: crash@rank:K dies on exactly the
// (K+1)-th send initiation, once.
func TestPlaneNoteSendBoundary(t *testing.T) {
	var fc fakeClock
	s := NewPlane(4, -1, []Crash{{Rank: 1, AfterSends: 2}, {Rank: 3, AfterSends: 0}}, testLeases(), fc.clock(), nil, nil)
	for i, want := range []bool{false, false, true, false, false} {
		if got := s.NoteSend(1); got != want {
			t.Fatalf("rank 1 send %d: die=%v, want %v", i, got, want)
		}
		if dead := s.Dead(1); dead != (i >= 2) {
			t.Fatalf("rank 1 after send %d: dead=%v", i, dead)
		}
	}
	if !s.NoteSend(3) {
		t.Fatal("crash@3:0 survived its first send")
	}
	for i := 0; i < 10; i++ {
		if s.NoteSend(0) {
			t.Fatal("rank 0 has no rule but died")
		}
	}
	if got := s.DeadMask(4); !got[1] || !got[3] || got[0] || got[2] {
		t.Fatalf("dead mask %v", got)
	}
	if s.Down(1) || fc.armed != 0 {
		t.Fatal("a crash armed detector leases by itself; the substrate reports the loss")
	}
}

func TestPlaneRejectsRankOutsideWorld(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("crash rule for rank 4 in a 4-rank world did not panic")
		}
	}()
	NewPlane(4, -1, []Crash{{Rank: 4}}, testLeases(), Clock{}, nil, nil)
}
