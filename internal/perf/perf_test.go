package perf

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// The counters are process-global, so every test starts from Reset and
// none may run in parallel with another perf test.

func TestRecordKernelRunAggregates(t *testing.T) {
	Reset()
	RecordKernelRun(100, 120, 7)
	RecordKernelRun(50, 60, 3) // lower peak must not regress the max
	s := Read()
	if s.KernelRuns != 2 {
		t.Errorf("KernelRuns = %d, want 2", s.KernelRuns)
	}
	if s.EventsDispatched != 150 || s.EventsScheduled != 180 {
		t.Errorf("events = %d/%d, want 150/180", s.EventsDispatched, s.EventsScheduled)
	}
	if s.HeapPeak != 7 {
		t.Errorf("HeapPeak = %d, want 7", s.HeapPeak)
	}
	RecordKernelRun(1, 1, 11)
	if got := Read().HeapPeak; got != 11 {
		t.Errorf("HeapPeak after larger run = %d, want 11", got)
	}
}

func TestRecordBufCounters(t *testing.T) {
	Reset()
	RecordBufGet(true)
	RecordBufGet(false)
	RecordBufGet(true)
	RecordBufPut(false)
	RecordBufPut(true)
	s := Read()
	if s.BufGets != 3 || s.BufHits != 2 {
		t.Errorf("gets/hits = %d/%d, want 3/2", s.BufGets, s.BufHits)
	}
	if s.BufPuts != 2 || s.BufRecycled != 1 {
		t.Errorf("puts/recycled = %d/%d, want 2/1", s.BufPuts, s.BufRecycled)
	}
}

func TestFaultCountersAndTotal(t *testing.T) {
	Reset()
	if got := Read().FaultTotal(); got != 0 {
		t.Fatalf("FaultTotal after Reset = %d", got)
	}
	RecordFaultDrop()
	RecordFaultDrop()
	RecordFaultDup()
	RecordFaultDelay()
	RecordFaultRetry()
	RecordFaultTimeout()
	RecordFaultSuppressed()
	s := Read()
	want := Snapshot{
		FaultDrops: 2, FaultDups: 1, FaultDelays: 1,
		FaultRetries: 1, FaultTimeouts: 1, FaultSuppressed: 1,
	}
	if s.FaultDrops != want.FaultDrops || s.FaultDups != want.FaultDups ||
		s.FaultDelays != want.FaultDelays || s.FaultRetries != want.FaultRetries ||
		s.FaultTimeouts != want.FaultTimeouts || s.FaultSuppressed != want.FaultSuppressed {
		t.Errorf("fault counters = %+v, want %+v", s, want)
	}
	if got := s.FaultTotal(); got != 7 {
		t.Errorf("FaultTotal = %d, want 7", got)
	}
}

func TestResetZeroesEverything(t *testing.T) {
	Reset()
	RecordKernelRun(5, 5, 5)
	RecordBufGet(true)
	RecordBufPut(true)
	RecordFaultDrop()
	Reset()
	s := Read()
	if s != (Snapshot{}) {
		t.Errorf("snapshot after Reset = %+v, want zero", s)
	}
}

func TestFprintGatesFaultLine(t *testing.T) {
	Reset()
	RecordKernelRun(1, 2, 3)
	var clean strings.Builder
	Read().Fprint(&clean)
	if strings.Contains(clean.String(), "faults") {
		t.Errorf("clean report mentions faults:\n%s", clean.String())
	}
	RecordFaultDrop()
	RecordFaultRetry()
	var faulty strings.Builder
	Read().Fprint(&faulty)
	out := faulty.String()
	for _, want := range []string{"faults 1 drops", "1 retries"} {
		if !strings.Contains(out, want) {
			t.Errorf("faulty report missing %q:\n%s", want, out)
		}
	}
}

// TestConcurrentIncrements hammers every Record* path from many
// goroutines; run with -race this doubles as the data-race check, and the
// final tallies must be exact (no lost updates).
func TestConcurrentIncrements(t *testing.T) {
	Reset()
	const workers = 16
	const rounds = 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				RecordKernelRun(1, 2, w*rounds+i)
				RecordBufGet(i%2 == 0)
				RecordBufPut(i%4 == 0)
				RecordFaultDrop()
				RecordFaultDup()
				RecordFaultRetry()
				RecordFaultSuppressed()
				if i%10 == 0 {
					Read() // concurrent readers must also be race-free
				}
			}
		}()
	}
	wg.Wait()
	s := Read()
	total := uint64(workers * rounds)
	if s.KernelRuns != total {
		t.Errorf("KernelRuns = %d, want %d", s.KernelRuns, total)
	}
	if s.EventsDispatched != total || s.EventsScheduled != 2*total {
		t.Errorf("events = %d/%d, want %d/%d", s.EventsDispatched, s.EventsScheduled, total, 2*total)
	}
	if want := int64(workers*rounds - 1); s.HeapPeak != want {
		t.Errorf("HeapPeak = %d, want %d", s.HeapPeak, want)
	}
	if s.BufGets != total || s.BufHits != total/2 {
		t.Errorf("gets/hits = %d/%d, want %d/%d", s.BufGets, s.BufHits, total, total/2)
	}
	if s.FaultDrops != total || s.FaultDups != total || s.FaultRetries != total || s.FaultSuppressed != total {
		t.Errorf("fault counters lost updates: %+v", s)
	}
}

// TestSnapshotJSON: a snapshot survives the JSON round trip that
// /statusz readers such as adapt ctl decode it through.
func TestSnapshotJSON(t *testing.T) {
	s := Snapshot{KernelRuns: 3, EventsDispatched: 42, HeapPeak: 7, BufGets: 5, BufHits: 4}
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, b)
	}
	if back != s {
		t.Fatalf("round trip mismatch: %+v != %+v", back, s)
	}
}
