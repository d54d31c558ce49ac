package fec

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"
)

// manualTimers is a fake after(d, fn): timers queue until fired by hand.
type manualTimers struct {
	delays []time.Duration
	fns    []func()
}

func (m *manualTimers) after(d time.Duration, fn func()) {
	m.delays = append(m.delays, d)
	m.fns = append(m.fns, fn)
}

// testFramer builds a K=3, M=2 framer whose seals are collected.
func testFramer(ctr *Counters, timers *manualTimers) (*Framer[int], *[]*Group[int]) {
	var sealed []*Group[int]
	f := NewFramer(Config{K: 3, M: 2}.Normalized(), ctr, 25*time.Microsecond, timers.after,
		func(g *Group[int]) { sealed = append(sealed, g) })
	return f, &sealed
}

func shard(i int) []byte { return bytes.Repeat([]byte{byte(i + 1)}, 16+i) }

func TestFramerClosesAtK(t *testing.T) {
	var ctr Counters
	var timers manualTimers
	f, sealed := testFramer(&ctr, &timers)
	for i := 0; i < 3; i++ {
		f.Add(0, 1, i, shard(i))
	}
	if len(*sealed) != 1 {
		t.Fatalf("%d groups sealed after K adds, want 1", len(*sealed))
	}
	g := (*sealed)[0]
	if g.ID != 1 || g.Src != 0 || g.Dst != 1 || len(g.Members) != 3 || g.Params != (Params{K: 3, M: 2}) {
		t.Fatalf("sealed group %+v", g)
	}
	if len(g.Parity) != 2 || g.ParitySettled() {
		t.Fatalf("parity %d shards, settled=%v", len(g.Parity), g.ParitySettled())
	}
	if st := ctr.Stats(); st.ParityEncoded != 2 {
		t.Fatalf("stats %+v, want 2 parity encoded", st)
	}
	if len(timers.delays) != 1 || timers.delays[0] != 25*time.Microsecond {
		t.Fatalf("idle flushes armed %v, want one at 25µs", timers.delays)
	}
}

// TestFramerIdleFlushVsKClose: a group closed at K is not sealed again
// when its idle timer fires later; a flushed group's stale timer does
// not touch the link's next group; links are framed independently.
func TestFramerIdleFlushVsKClose(t *testing.T) {
	var ctr Counters
	var timers manualTimers
	f, sealed := testFramer(&ctr, &timers)

	for i := 0; i < 3; i++ {
		f.Add(0, 1, i, shard(i))
	}
	timers.fns[0]() // group 1 already closed at K
	if len(*sealed) != 1 {
		t.Fatalf("idle timer of a K-closed group sealed again: %d seals", len(*sealed))
	}

	f.Add(0, 1, 10, shard(0)) // opens group 2
	f.Add(1, 0, 20, nil)      // opens group 3 on the reverse link
	timers.fns[1]()           // flush group 2 with one member
	if len(*sealed) != 2 || (*sealed)[1].ID != 2 || len((*sealed)[1].Members) != 1 {
		t.Fatalf("idle flush: seals %d, last %+v", len(*sealed), (*sealed)[len(*sealed)-1])
	}
	f.Add(0, 1, 11, shard(1)) // opens group 4; group 2's timer already spent
	timers.fns[1]()           // a stale re-fire must not seal group 4
	if len(*sealed) != 2 {
		t.Fatalf("stale idle timer sealed the link's next group")
	}
	timers.fns[2]()
	timers.fns[3]()
	if len(*sealed) != 4 || (*sealed)[2].ID != 3 || (*sealed)[3].ID != 4 {
		t.Fatalf("want groups 3 then 4 flushed, got %d seals", len(*sealed))
	}
	if m := (*sealed)[2].Members; len(m) != 1 || m[0] != 20 {
		t.Fatalf("reverse link group members %v", m)
	}
}

func TestFramerStop(t *testing.T) {
	var ctr Counters
	var timers manualTimers
	f, sealed := testFramer(&ctr, &timers)
	f.Add(0, 1, 0, shard(0))
	open := f.Stop()
	if len(open) != 1 || len(open[0].Members) != 1 {
		t.Fatalf("Stop returned %d open groups", len(open))
	}
	open[0].Release()
	if f.Add(0, 1, 1, shard(1)) {
		t.Fatal("Add after Stop took the shard")
	}
	timers.fns[0]()
	if len(*sealed) != 0 {
		t.Fatal("idle flush sealed after Stop")
	}
}

func TestParityFateResolvedTwicePanics(t *testing.T) {
	var ctr Counters
	var timers manualTimers
	f, sealed := testFramer(&ctr, &timers)
	for i := 0; i < 3; i++ {
		f.Add(0, 1, i, shard(i))
	}
	g := (*sealed)[0]
	g.ParityFate(0, true)
	g.ParityFate(1, false)
	if !g.ParitySettled() || g.Parity[0] == nil || g.Parity[1] != nil {
		t.Fatalf("fates not recorded: settled=%v parity nil=[%v %v]",
			g.ParitySettled(), g.Parity[0] == nil, g.Parity[1] == nil)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("settling parity 0 twice did not panic")
		}
	}()
	g.ParityFate(0, true)
}

// TestFramerDecode: erasures within the surviving parity come back
// byte-exact (elided members included); beyond it the group is lost.
func TestFramerDecode(t *testing.T) {
	var ctr Counters
	var timers manualTimers
	f, sealed := testFramer(&ctr, &timers)
	f.Add(0, 1, 0, shard(0))
	f.Add(0, 1, 1, nil) // elided payload
	f.Add(0, 1, 2, shard(2))
	g := (*sealed)[0]
	g.ParityFate(0, true)
	g.ParityFate(1, true)

	data := f.Decode(g, []int{0, 2})
	if data == nil {
		t.Fatal("two erasures under two parity shards not recovered")
	}
	if !bytes.Equal(data[0], shard(0)) || !bytes.Equal(data[2], shard(2)) || len(data[1]) != 0 {
		t.Fatal("decoded shards differ from the originals")
	}
	if st := ctr.Stats(); st.Reconstructed != 2 || st.GroupsLost != 0 {
		t.Fatalf("stats after recovery %+v", st)
	}
	if f.Decode(g, []int{0, 1, 2}) != nil {
		t.Fatal("three erasures under two parity shards reported recovered")
	}
	if st := ctr.Stats(); st.GroupsLost != 1 || st.Reconstructed != 2 {
		t.Fatalf("stats after loss %+v", st)
	}
	g.Release()
}

// TestFramerRecycleTwicePanics: recycling a group whose owner already
// handed it back is reported at once, naming the record kind, instead
// of the group being reissued twice.
func TestFramerRecycleTwicePanics(t *testing.T) {
	var ctr Counters
	var timers manualTimers
	f, sealed := testFramer(&ctr, &timers)
	f.Add(0, 1, 0, shard(0))
	timers.fns[0]() // the idle flush seals the group and drops its reference
	g := (*sealed)[0]
	g.ParityFate(0, true)
	g.ParityFate(1, true)
	f.Recycle(g)
	defer func() {
		if p := recover(); p == nil || !strings.Contains(fmt.Sprint(p), "fec.Group released twice") {
			t.Fatalf("second Recycle: recovered %v, want a fec.Group released-twice panic", p)
		}
	}()
	f.Recycle(g)
}
