package metrics

import (
	"regexp"
	"strings"
	"testing"
)

// TestPrometheusGolden pins the exposition surface byte-for-byte:
// HELP/TYPE once per name, stable (name, labels) ordering, label and
// help escaping, cumulative le buckets with +Inf/_sum/_count.
func TestPrometheusGolden(t *testing.T) {
	withTelemetry(t, true)
	r := NewRegistry()

	ca := r.NewCounter("adapt_test_bytes_total", "bytes moved", Label{"kind", "a"})
	cb := r.NewCounter("adapt_test_bytes_total", "bytes moved", Label{"kind", "b"})
	r.NewCounter("adapt_test_escape_total", `help with \ backslash`,
		Label{"msg", "say \"hi\"\nC:\\x"})
	h := r.NewHistogram("adapt_test_latency_ns", "request latency")
	g := r.NewGauge("adapt_test_queue", "live queue depth")

	ca.Add(7)
	cb.Add(9)
	g.Set(5)
	for _, v := range []uint64{3, 3, 20, 300} {
		h.Observe(v)
	}

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := "# HELP adapt_test_bytes_total bytes moved\n" +
		"# TYPE adapt_test_bytes_total counter\n" +
		"adapt_test_bytes_total{kind=\"a\"} 7\n" +
		"adapt_test_bytes_total{kind=\"b\"} 9\n" +
		"# HELP adapt_test_escape_total help with \\\\ backslash\n" +
		"# TYPE adapt_test_escape_total counter\n" +
		"adapt_test_escape_total{msg=\"say \\\"hi\\\"\\nC:\\\\x\"} 0\n" +
		"# HELP adapt_test_latency_ns request latency\n" +
		"# TYPE adapt_test_latency_ns histogram\n" +
		"adapt_test_latency_ns_bucket{le=\"3\"} 2\n" +
		"adapt_test_latency_ns_bucket{le=\"21\"} 3\n" +
		"adapt_test_latency_ns_bucket{le=\"319\"} 4\n" +
		"adapt_test_latency_ns_bucket{le=\"+Inf\"} 4\n" +
		"adapt_test_latency_ns_sum 326\n" +
		"adapt_test_latency_ns_count 4\n" +
		"# HELP adapt_test_queue live queue depth\n" +
		"# TYPE adapt_test_queue gauge\n" +
		"adapt_test_queue 5\n"
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// sampleLine matches one exposition sample: name, optional label set,
// integer value. The same shape ParseExposition (adapt ctl) accepts.
var sampleLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? -?[0-9]+$`)

// TestPrometheusParses renders a registry with every metric kind under
// load and checks each line is well-formed and HELP appears exactly
// once per name. (The daemon's full default registry gets the same
// check end-to-end in the serve admin test and the bench obs gate.)
func TestPrometheusParses(t *testing.T) {
	withTelemetry(t, true)
	r := NewRegistry()
	for i, kind := range []string{"alpha", "beta", "gamma"} {
		r.NewCounter("t_parse_reqs_total", "requests", Label{"kind", kind}).Add(uint64(i * 3))
		h := r.NewHistogram("t_parse_lat_ns", "latency", Label{"kind", kind})
		for v := uint64(1); v < 1<<20; v *= 7 {
			h.Observe(v)
		}
	}
	r.NewGauge("t_parse_depth", "depth").Set(-4)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	helped := map[string]int{}
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") {
			helped[strings.Fields(line)[2]]++
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if !sampleLine.MatchString(line) {
			t.Errorf("malformed sample line: %q", line)
		}
	}
	for name, n := range helped {
		if n != 1 {
			t.Errorf("HELP for %s appears %d times", name, n)
		}
	}
}

// TestDuplicateRegistrationPanics pins the identity check: two metrics
// with the same (name, labels) is a programming error, caught at init.
func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("t_dup", "first")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.NewCounter("t_dup", "second")
}
