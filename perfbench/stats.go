package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// minTail is how many samples must lie beyond a reported percentile.
// A p99 over fewer samples is one or two outliers, not a tail.
const minTail = 10

// quantile is one reported percentile together with the sample count it
// was taken over.
type quantile struct {
	Value float64
	N     int
}

// percentile returns the nearest-rank p-quantile (0 < p < 1) of sorted.
// It refuses, with an error, a percentile that has fewer than minTail
// samples beyond it.
func percentile(sorted []float64, p float64) (quantile, error) {
	n := len(sorted)
	if !(p > 0 && p < 1) {
		return quantile{N: n}, fmt.Errorf("percentile %v outside (0, 1)", p)
	}
	if n == 0 {
		return quantile{}, fmt.Errorf("p%g of no samples", 100*p)
	}
	// The epsilon keeps p*n that should be whole (0.99*1000) from
	// rounding up to the next rank.
	i := int(math.Ceil(p*float64(n)-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	if beyond := n - 1 - i; beyond < minTail {
		return quantile{N: n}, fmt.Errorf("p%g of %d samples has %d beyond it, want at least %d",
			100*p, n, beyond, minTail)
	}
	return quantile{Value: sorted[i], N: n}, nil
}

// median returns the median of xs (the mean of the middle pair for an
// even count) without reordering xs.
func median(xs []float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("median of no samples")
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2], nil
	}
	return (s[n/2-1] + s[n/2]) / 2, nil
}

// durations converts durations to float64 in the given unit.
func durations(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

// parseVmHWM extracts the peak resident set (VmHWM) in kB from the text
// of /proc/<pid>/status.
func parseVmHWM(r io.Reader) (int64, error) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 2 || f[0] != "VmHWM:" {
			continue
		}
		if len(f) == 3 && f[2] != "kB" {
			return 0, fmt.Errorf("VmHWM in unit %q, want kB", f[2])
		}
		kb, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil || kb < 0 {
			return 0, fmt.Errorf("bad VmHWM value %q", f[1])
		}
		return kb, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line")
}

// peakRSSKB reads this process's VmHWM.
func peakRSSKB() (int64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return parseVmHWM(f)
}

// resetPeakRSS restarts VmHWM from the current resident set (Linux 4.0+:
// writing 5 to clear_refs), so the next reading is the peak of what ran
// in between.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// cpuTime is user and system CPU time consumed by the process.
type cpuTime struct {
	User, Sys time.Duration
}

func (c cpuTime) total() time.Duration { return c.User + c.Sys }

// sub returns the CPU time spent between an earlier reading and c.
func (c cpuTime) sub(earlier cpuTime) cpuTime {
	return cpuTime{User: c.User - earlier.User, Sys: c.Sys - earlier.Sys}
}

func fromRusage(ru *syscall.Rusage) cpuTime {
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return cpuTime{User: tv(ru.Utime), Sys: tv(ru.Stime)}
}

// readCPU returns getrusage(RUSAGE_SELF): every thread of the process,
// the garbage collector's included.
func readCPU() (cpuTime, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return cpuTime{}, fmt.Errorf("getrusage: %w", err)
	}
	return fromRusage(&ru), nil
}

// gcReading is the Go runtime's cumulative collector activity.
type gcReading struct {
	Cycles uint64
	Pause  time.Duration
}

func readGC() gcReading {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	var st debug.GCStats
	debug.ReadGCStats(&st)
	r := gcReading{Pause: st.PauseTotal}
	if s[0].Value.Kind() == metrics.KindUint64 {
		r.Cycles = s[0].Value.Uint64()
	}
	return r
}

// calibIters fixes the host probe's work; about 30 ms on a 2020s core.
const calibIters = 40_000_000

var calibSink uint64

// hostCalib times a fixed pure-CPU loop (xorshift, no memory traffic,
// no allocation). The program never runs it, so a change in its time
// between two runs means the host got faster or slower, not the code.
func hostCalib() time.Duration {
	x := uint64(88172645463325252)
	start := time.Now()
	for i := 0; i < calibIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	d := time.Since(start)
	calibSink += x
	return d
}

// splitmix derives an independent 63-bit stream seed from the benchmark
// seed and a stream label, so each random input has its own seed.
func splitmix(seed int64, stream uint64) int64 {
	z := uint64(seed) + stream*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z >> 1)
}
