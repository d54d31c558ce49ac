package bench

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"adapt/internal/comm"
	"adapt/internal/libmodel"
	"adapt/internal/netmodel"
	"adapt/internal/sim"
	"adapt/internal/simmpi"
	"adapt/internal/trace"
)

// fig7aSmallestCell runs fig7a's cheapest cell — the first CPU library's
// noise-injected 4 MB broadcast on the Quick Cori machine, one warmup and
// two timed reps — with a full event trace attached, and returns the
// serialized virtual-time trajectory plus the kernel's final clock and
// event count.
func fig7aSmallestCell(t *testing.T) ([]byte, time.Duration, uint64) {
	t.Helper()
	s := Quick()
	p := netmodel.Cori(s.CoriNodes)
	lib := libmodel.CPULibraries(p)[0]
	k := sim.New()
	w := simmpi.NewWorld(k, p, s.noiseSpec(5))
	tb := &trace.Buffer{}
	w.Trace = tb
	w.Spawn(func(c *simmpi.Comm) {
		for seq := 0; seq < 3; seq++ {
			lib.Bcast(c, 0, comm.Sized(4*netmodel.MB), seq)
		}
	})
	end, err := k.Run()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, r := range tb.Records {
		fmt.Fprintf(&buf, "%d %d %d %d %d %d %d\n",
			r.At, r.Dur, r.Rank, r.Kind, r.Peer, r.Tag, r.Size)
	}
	return buf.Bytes(), end, k.Dispatched()
}

// TestFig7aTrajectoryDeterminism: two runs of the same cell on fresh
// kernels produce byte-identical virtual-time trajectories — the
// guarantee the kernel rebuild (monomorphic heap, closure free-lists,
// pooled buffers) must not disturb.
func TestFig7aTrajectoryDeterminism(t *testing.T) {
	tr1, end1, n1 := fig7aSmallestCell(t)
	tr2, end2, n2 := fig7aSmallestCell(t)
	if end1 != end2 || n1 != n2 {
		t.Fatalf("runs diverged: (%v, %d events) vs (%v, %d events)", end1, n1, end2, n2)
	}
	if !bytes.Equal(tr1, tr2) {
		t.Fatalf("virtual-time trajectories differ (%d vs %d bytes)", len(tr1), len(tr2))
	}
	if len(tr1) == 0 {
		t.Fatal("empty trajectory: trace not attached?")
	}
}

// renderTables prints tables the way adapt bench does, for byte comparison.
func renderTables(tables []*Table) []byte {
	var buf bytes.Buffer
	for _, tb := range tables {
		tb.Fprint(&buf)
	}
	return buf.Bytes()
}

// TestParallelSweepMatchesSerial: a -j 4 sweep must be bit-identical to
// the serial sweep — every cell owns a private deterministic kernel and
// the replay pass consumes results in serial call order. Under the race
// detector it sweeps one node and one noise repetition: the race run is
// after the sweep's worker handoff, which a small world exercises as
// well as a large one.
func TestParallelSweepMatchesSerial(t *testing.T) {
	s := Quick()
	s.CoriNodes = 2
	s.NoiseReps = 2
	if raceEnabled {
		s.CoriNodes, s.NoiseReps = 1, 1
	}
	for _, id := range []string{"fig7a", "table1"} {
		id := id
		t.Run(id, func(t *testing.T) {
			serial, err := RunTables(id, s)
			if err != nil {
				t.Fatal(err)
			}
			parallel, err := RunTablesParallel(id, s, 4)
			if err != nil {
				t.Fatal(err)
			}
			got, want := renderTables(parallel), renderTables(serial)
			if !bytes.Equal(got, want) {
				t.Fatalf("parallel sweep differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", want, got)
			}
		})
	}
}

// TestTraceSweepByteIdentical: the canonical Chrome trace captured by a
// -j 4 sweep must be byte-identical to the serial sweep's — runs are
// appended at result-consumption time, which follows serial call order
// regardless of worker count.
func TestTraceSweepByteIdentical(t *testing.T) {
	s := Quick()
	s.CoriNodes = 2
	s.NoiseReps = 2
	render := func(jobs int) []byte {
		s.CTrace = &TraceSink{}
		if _, err := RunTablesParallel("fig7a", s, jobs); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := trace.WriteChrome(&buf, s.CTrace.Runs()); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	serial := render(1)
	parallel := render(4)
	if len(serial) == 0 || bytes.Count(serial, []byte("adaptRuns")) == 0 {
		t.Fatal("serial sweep produced no canonical trace")
	}
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("canonical trace differs between -j 1 (%d bytes) and -j 4 (%d bytes)",
			len(serial), len(parallel))
	}
	rerun := render(1)
	if !bytes.Equal(serial, rerun) {
		t.Fatal("canonical trace differs between identical reruns")
	}
}

// TestTraceSinkCapCountsDrops: a tiny per-cell cap must truncate, not
// crash, and carry the drop count into the snapshot.
func TestTraceSinkCapCountsDrops(t *testing.T) {
	s := Quick()
	s.CoriNodes = 2
	s.NoiseReps = 2
	s.CTrace = &TraceSink{Cap: 100}
	if _, err := RunTables("table1", s); err != nil {
		t.Fatal(err)
	}
	runs := s.CTrace.Runs()
	if len(runs) == 0 {
		t.Fatal("no runs collected")
	}
	for _, r := range runs {
		if len(r.Records) > 100 {
			t.Fatalf("run %q holds %d records above cap", r.Name, len(r.Records))
		}
		if r.Dropped == 0 {
			t.Fatalf("run %q expected drops at cap 100", r.Name)
		}
	}
}

// TestTracerNoObserverEffect: attaching the causal tracer must not
// change what it observes. Table 1 at quick scale prints the same bytes
// with and without a TraceSink.
func TestTracerNoObserverEffect(t *testing.T) {
	plain, err := RunTablesParallel("table1", Quick(), DefaultJobs())
	if err != nil {
		t.Fatal(err)
	}
	s := Quick()
	s.CTrace = &TraceSink{}
	traced, err := RunTablesParallel("table1", s, DefaultJobs())
	if err != nil {
		t.Fatal(err)
	}
	if len(s.CTrace.Runs()) == 0 {
		t.Fatal("traced sweep captured no runs")
	}
	if got, want := renderTables(traced), renderTables(plain); !bytes.Equal(got, want) {
		t.Fatalf("tracing changed table1:\n--- untraced ---\n%s\n--- traced ---\n%s", want, got)
	}
}
