package bench

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
	"time"

	"adapt/internal/netmodel"
)

func TestTableFormatting(t *testing.T) {
	tb := &Table{
		ID:     "t",
		Title:  "demo",
		Header: []string{"library", "a ms", "b ms"},
		Notes:  []string{"a note"},
	}
	tb.AddRow("x", "1.000", "2.000")
	tb.AddRow("longer-name", "10.000", "20.000")
	var buf bytes.Buffer
	tb.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"== t: demo", "library", "longer-name", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestFormattingHelpers(t *testing.T) {
	if got := ms(1500 * time.Microsecond); got != "1.500" {
		t.Errorf("ms = %q", got)
	}
	if got := pct(time.Millisecond, 2*time.Millisecond); got != "+100%" {
		t.Errorf("pct = %q", got)
	}
	if got := speedup(10*time.Millisecond, 2*time.Millisecond); got != "5.0x" {
		t.Errorf("speedup = %q", got)
	}
	if pct(0, time.Second) != "n/a" || speedup(time.Second, 0) != "n/a" {
		t.Error("zero guards broken")
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := Run("fig99", Quick(), &bytes.Buffer{}); err == nil {
		t.Fatal("expected error for unknown experiment")
	}
}

// parseCell reads a "1.234" milliseconds cell.
func parseCell(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		t.Fatalf("cell %q: %v", cell, err)
	}
	return v
}

// TestFig9aQuickShape runs the end-to-end sweep at Quick scale and checks
// the headline: ADAPT wins at the largest size.
func TestFig9aQuickShape(t *testing.T) {
	tables := Quick().Fig9a()
	if len(tables) != 2 {
		t.Fatalf("fig9a has %d tables", len(tables))
	}
	bcast := tables[0]
	last := len(bcast.Header) - 1
	var adapt, worst float64
	for _, row := range bcast.Rows {
		v := parseCell(t, row[last])
		if row[0] == "OMPI-adapt" {
			adapt = v
		} else if v > worst {
			worst = v
		}
	}
	if adapt <= 0 || adapt >= worst {
		t.Fatalf("ADAPT (%.3f ms) should beat the worst library (%.3f ms) at 4MB", adapt, worst)
	}
}

// TestFig10QuickFlat checks ADAPT's strong-scaling flatness: time grows
// far slower than process count.
func TestFig10QuickFlat(t *testing.T) {
	tables := Quick().Fig10()
	bcast := tables[0]
	for _, row := range bcast.Rows {
		if row[0] != "OMPI-adapt" {
			continue
		}
		first := parseCell(t, row[1])
		lastV := parseCell(t, row[len(row)-1])
		if lastV > 3*first {
			t.Fatalf("ADAPT scaling not flat: %.3f → %.3f ms", first, lastV)
		}
		return
	}
	t.Fatal("no OMPI-adapt row in fig10")
}

// TestFig11aQuickShape checks the GPU headline: ADAPT wins bcast and wins
// reduce by a large factor (offload + staging).
func TestFig11aQuickShape(t *testing.T) {
	tables := Quick().Fig11a()
	for ti, tb := range tables {
		last := len(tb.Header) - 1
		var adapt, best float64
		best = 1e18
		for _, row := range tb.Rows {
			v := parseCell(t, row[last])
			if row[0] == "OMPI-adapt" {
				adapt = v
			} else if v < best {
				best = v
			}
		}
		if adapt >= best {
			t.Fatalf("table %d: ADAPT (%.3f) should beat best baseline (%.3f)", ti, adapt, best)
		}
		if ti == 1 && best/adapt < 2 {
			t.Fatalf("GPU reduce gap only %.1fx; expected offload to dominate", best/adapt)
		}
	}
}

// TestTable1Quick checks the ASP headline: ADAPT has the lowest total
// runtime and the lowest communication share.
func TestTable1Quick(t *testing.T) {
	tb := Quick().Table1()[0]
	var adaptTotal, worstTotal float64
	for _, row := range tb.Rows {
		total := parseCell(t, row[2])
		if row[0] == "OMPI-adapt" {
			adaptTotal = total
		} else if total > worstTotal {
			worstTotal = total
		}
	}
	if adaptTotal <= 0 || adaptTotal >= worstTotal {
		t.Fatalf("ADAPT total %.2fs should beat worst %.2fs", adaptTotal, worstTotal)
	}
}

// TestFig7QuickOrdering: ADAPT must show the smallest 10%-noise slowdown.
func TestFig7QuickOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("noise sweep is slow")
	}
	tabs := Quick().Fig7a()
	bcast := tabs[0]
	slow := map[string]float64{}
	for _, row := range bcast.Rows {
		base := parseCell(t, row[1])
		ten := parseCell(t, row[4])
		slow[row[0]] = ten / base
	}
	for name, v := range slow {
		if name == "OMPI-adapt" {
			continue
		}
		if slow["OMPI-adapt"] > v*1.5 {
			t.Errorf("ADAPT slowdown (%.2fx) should not far exceed %s (%.2fx)", slow["OMPI-adapt"], name, v)
		}
	}
}

func TestExtensionExhibitsQuick(t *testing.T) {
	s := Quick()
	for _, id := range Extensions() {
		id := id
		t.Run(id, func(t *testing.T) {
			var buf bytes.Buffer
			if err := Run(id, s, &buf); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(buf.String(), "== "+id) {
				t.Fatalf("missing table header:\n%s", buf.String())
			}
		})
	}
}

// TestPaperExhibitsTiny runs the paper exhibits the quick-scale shape
// tests leave out on one node per platform and one message size.
func TestPaperExhibitsTiny(t *testing.T) {
	s := Scale{
		CoriNodes: 1, Stampede2Nodes: 1, PSGNodes: 1,
		NoiseReps: 1, Reps: 1,
		Sizes: []int{64 * netmodel.KB}, GPUSizes: []int{1 * netmodel.MB},
	}
	for _, id := range []string{"fig7b", "fig8a", "fig8b", "fig9b", "fig11b"} {
		t.Run(id, func(t *testing.T) {
			var buf bytes.Buffer
			if err := Run(id, s, &buf); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(buf.String(), "== "+id) {
				t.Fatalf("missing table header:\n%s", buf.String())
			}
		})
	}
}

func TestWriteCSV(t *testing.T) {
	tb := &Table{ID: "x", Header: []string{"a", "b"}, Rows: [][]string{{"1", "2"}, {"3", "4"}}}
	var buf bytes.Buffer
	if err := tb.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "a,b\n1,2\n3,4\n"
	if buf.String() != want {
		t.Fatalf("csv = %q, want %q", buf.String(), want)
	}
}

// TestFECSweepGate: across the quick loss sweep, an FEC run whose groups
// all repaired retransmits nothing, and at least one run repairs real
// losses that way.
func TestFECSweepGate(t *testing.T) {
	if err := Quick().FECSweep().GateErr(); err != nil {
		t.Fatal(err)
	}
}
