package perf

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// sentinelSnapshot fills every Snapshot field with a distinct 7-digit
// sentinel via reflection, so a counter added to the struct is covered
// by these tests automatically — and a counter whose value never
// reaches the export surfaces fails them.
func sentinelSnapshot(t *testing.T) (Snapshot, map[string]uint64) {
	t.Helper()
	var s Snapshot
	want := map[string]uint64{}
	v := reflect.ValueOf(&s).Elem()
	ty := v.Type()
	for i := 0; i < v.NumField(); i++ {
		sentinel := uint64(9000001 + 7*i)
		switch v.Field(i).Kind() {
		case reflect.Uint64:
			v.Field(i).SetUint(sentinel)
		case reflect.Int64:
			v.Field(i).SetInt(int64(sentinel))
		default:
			t.Fatalf("Snapshot field %s has unsupported kind %s", ty.Field(i).Name, v.Field(i).Kind())
		}
		want[ty.Field(i).Name] = sentinel
	}
	return s, want
}

// TestSnapshotJSONCoversAllCounters fails when a counter field is
// added to Snapshot but hidden from its JSON encoding (a json:"-" tag or
// an unexported rename), which the admin plane's /statusz document
// carries as its perf and perf_window sections.
func TestSnapshotJSONCoversAllCounters(t *testing.T) {
	s, want := sentinelSnapshot(t)
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	for name, sentinel := range want {
		raw, ok := got[name]
		if !ok {
			t.Errorf("Snapshot field %s missing from JSON export", name)
			continue
		}
		if f, ok := raw.(float64); !ok || uint64(f) != sentinel {
			t.Errorf("Snapshot field %s: JSON export has %v, want %d", name, raw, sentinel)
		}
	}
}

// TestFprintCoversAllCounters fails when a counter is added to
// Snapshot but left out of the gated human-readable print line: every
// field's raw sentinel value must appear somewhere in the report.
func TestFprintCoversAllCounters(t *testing.T) {
	s, want := sentinelSnapshot(t)
	var buf bytes.Buffer
	s.Fprint(&buf)
	out := buf.String()
	for name, sentinel := range want {
		if !strings.Contains(out, fmt.Sprint(sentinel)) {
			t.Errorf("Snapshot field %s (sentinel %d) does not appear in Fprint output:\n%s",
				name, sentinel, out)
		}
	}
}

func TestSnapshotDelta(t *testing.T) {
	prev := Snapshot{KernelRuns: 10, BufGets: 100, ServeRequests: 7, HeapPeak: 40}
	cur := Snapshot{KernelRuns: 15, BufGets: 160, ServeRequests: 7, HeapPeak: 55}
	d := cur.Delta(prev)
	if d.KernelRuns != 5 || d.BufGets != 60 || d.ServeRequests != 0 {
		t.Fatalf("counter deltas wrong: %+v", d)
	}
	if d.HeapPeak != 55 {
		t.Fatalf("HeapPeak must carry the current high-water mark, got %d", d.HeapPeak)
	}
	// A reset between snapshots must not wrap: report the current value.
	back := Snapshot{KernelRuns: 3}
	d = back.Delta(prev)
	if d.KernelRuns != 3 {
		t.Fatalf("backwards counter should report current value, got %d", d.KernelRuns)
	}
}

// TestDeltaCoversAllCounters pins that every uint64 field participates
// in Delta (a field skipped by the reflection walk would silently
// report lifetime totals as window rates).
func TestDeltaCoversAllCounters(t *testing.T) {
	s, _ := sentinelSnapshot(t)
	d := s.Delta(s)
	v := reflect.ValueOf(d)
	ty := v.Type()
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).Kind() != reflect.Uint64 {
			continue
		}
		if v.Field(i).Uint() != 0 {
			t.Errorf("field %s: Delta(self) = %d, want 0", ty.Field(i).Name, v.Field(i).Uint())
		}
	}
}
