package main

import (
	"strings"
	"syscall"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentile(t *testing.T) {
	cases := []struct {
		n       int
		p, want float64
		refuse  bool
	}{
		{n: 1000, p: 0.99, want: 990},
		{n: 1000, p: 0.50, want: 500},
		{n: 1010, p: 0.99, want: 1000}, // exactly ten beyond
		{n: 1009, p: 0.99, want: 999},
		{n: 999, p: 0.99, refuse: true},
		{n: 21, p: 0.50, want: 11},
		{n: 20, p: 0.50, want: 10},
		{n: 19, p: 0.50, refuse: true}, // nine beyond the median
		{n: 0, p: 0.50, refuse: true},
		{n: 100, p: 1, refuse: true},
		{n: 100, p: 0, refuse: true},
	}
	for _, c := range cases {
		q, err := percentile(seq(c.n), c.p)
		if q.N != c.n {
			t.Errorf("p%g of %d: sample count %d", 100*c.p, c.n, q.N)
		}
		if c.refuse {
			if err == nil {
				t.Errorf("p%g of %d samples = %v, want refusal", 100*c.p, c.n, q.Value)
			}
			continue
		}
		if err != nil || q.Value != c.want {
			t.Errorf("p%g of %d = %v, %v; want %v", 100*c.p, c.n, q.Value, err, c.want)
		}
	}
}

func TestMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if m, err := median(xs); err != nil || m != 3 {
		t.Errorf("odd median = %v, %v; want 3", m, err)
	}
	if xs[0] != 5 || xs[4] != 3 {
		t.Errorf("median reordered its input: %v", xs)
	}
	if m, err := median([]float64{4, 1, 3, 2}); err != nil || m != 2.5 {
		t.Errorf("even median = %v, %v; want 2.5", m, err)
	}
	if m, err := median([]float64{7}); err != nil || m != 7 {
		t.Errorf("single median = %v, %v; want 7", m, err)
	}
	if _, err := median(nil); err == nil {
		t.Error("median of nothing did not fail")
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\tperfbench\nVmPeak:\t  812344 kB\nVmHWM:\t  389700 kB\nVmRSS:\t  201000 kB\n"
	if kb, err := parseVmHWM(strings.NewReader(status)); err != nil || kb != 389700 {
		t.Errorf("parseVmHWM = %d, %v; want 389700", kb, err)
	}
	for _, bad := range []string{
		"VmRSS:\t 1 kB\n",
		"VmHWM:\t abc kB\n",
		"VmHWM:\t -5 kB\n",
		"VmHWM:\t 5 MB\n",
		"",
	} {
		if kb, err := parseVmHWM(strings.NewReader(bad)); err == nil {
			t.Errorf("parseVmHWM(%q) = %d, want an error", bad, kb)
		}
	}
	if kb, err := peakRSSKB(); err != nil || kb <= 0 {
		t.Errorf("peakRSSKB = %d, %v", kb, err)
	}
}

func TestCPUDelta(t *testing.T) {
	a := fromRusage(&syscall.Rusage{Utime: syscall.Timeval{Sec: 1, Usec: 500000}, Stime: syscall.Timeval{Usec: 250000}})
	b := fromRusage(&syscall.Rusage{Utime: syscall.Timeval{Sec: 3, Usec: 100000}, Stime: syscall.Timeval{Sec: 1}})
	d := b.sub(a)
	if d.User != 1600*time.Millisecond || d.Sys != 750*time.Millisecond || d.total() != 2350*time.Millisecond {
		t.Errorf("delta = %+v (total %v), want user 1.6s sys 750ms", d, d.total())
	}

	before, err := readCPU()
	if err != nil {
		t.Fatal(err)
	}
	wall := time.Now()
	for time.Since(wall) < 50*time.Millisecond {
		hostCalib()
	}
	after, err := readCPU()
	if err != nil {
		t.Fatal(err)
	}
	// A busy loop on one goroutine consumes close to its wall time.
	if used := after.sub(before).total(); used < 25*time.Millisecond {
		t.Errorf("50ms busy loop used %v of CPU", used)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Layer: "bench", Start: 0, End: 100},
		{ID: 1, Parent: 0, Layer: "sim", Start: 10, End: 40},
		{ID: 2, Parent: 0, Layer: "sim", Start: 30, End: 60}, // overlaps its sibling
		{ID: 3, Parent: 2, Layer: "netmodel", Start: 35, End: 45},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{"bench": 50, "sim": 30 + 20, "netmodel": 10}
	for l, d := range want {
		if got[l] != d {
			t.Errorf("self[%s] = %v, want %v", l, got[l], d)
		}
	}
}

func TestSplitmixStreams(t *testing.T) {
	seen := map[int64]bool{}
	for seed := int64(0); seed < 4; seed++ {
		for stream := uint64(0); stream < 4; stream++ {
			v := splitmix(seed, stream)
			if v < 0 || seen[v] {
				t.Fatalf("splitmix(%d, %d) = %d: negative or repeated", seed, stream, v)
			}
			seen[v] = true
			if splitmix(seed, stream) != v {
				t.Fatalf("splitmix(%d, %d) is not a function of its arguments", seed, stream)
			}
		}
	}
}
