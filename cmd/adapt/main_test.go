package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// call runs one subcommand in-process and returns its exit status and
// what it wrote to stdout and stderr.
func call(args ...string) (code int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

// want checks one call's exit status and that its stdout holds every
// one of the wanted substrings.
func want(t *testing.T, args []string, code int, substrs ...string) string {
	t.Helper()
	got, out, errOut := call(args...)
	if got != code {
		t.Fatalf("adapt %s: exit %d, want %d\nstdout:\n%s\nstderr:\n%s", strings.Join(args, " "), got, code, out, errOut)
	}
	for _, s := range substrs {
		if !strings.Contains(out, s) {
			t.Errorf("adapt %s: stdout lacks %q:\n%s", strings.Join(args, " "), s, out)
		}
	}
	return out
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		nil,
		{"nope"},
		{"sim", "-no-such-flag"},
		{"tree", "-no-such-flag"},
		{"trace"},
		{"trace", "-no-such-flag"},
		{"ctl"},
		{"ctl", "-no-such-flag"},
		{"asp", "-mode", "nope"},
		{"asp", "-no-such-flag"},
		{"bench"},
		{"bench", "-no-such-flag"},
		{"bench", "-exp", "nope"},
		{"bench", "-exp", "fig7a", "-scale", "nope"},
		{"bench", "-exp", "ext-chaos", "-faults", "nope"},
		{"bench", "-ranks", "x"},
		{"bench", "-ranks-cell", "x"},
		{"bench", "-ranks-cell", "flat/bcast/x"},
	} {
		want(t, args, 2)
	}
}

func TestRuntimeErrors(t *testing.T) {
	for _, args := range [][]string{
		{"sim", "-platform", "nope"},
		{"sim", "-lib", "nope"},
		{"sim", "-op", "nope"},
		{"sim", "-profile", filepath.Join(t.TempDir(), "missing.json")},
		{"tree", "-platform", "nope"},
		{"tree", "-config", "nope"},
		{"trace", filepath.Join(t.TempDir(), "missing.json")},
		{"asp", "-mode", "sim", "-lib", "nope"},
		{"bench", "-ranks-cell", "nope/bcast/64"},
		{"bench", "-exp", "table1", "-scale", "quick", "-csv", filepath.Join(os.DevNull, "dir")},
		{"bench", "-exp", "table1", "-scale", "quick", "-ctrace", filepath.Join(os.DevNull, "t.json")},
	} {
		want(t, args, 1)
	}
}

func TestSim(t *testing.T) {
	want(t, []string{"sim", "-nodes", "2", "-size", "65536"},
		0, "OMPI-adapt bcast 64KB on cori (64 ranks)", "avg")
	want(t, []string{"sim", "-nodes", "1", "-op", "reduce", "-size", "1048576", "-noise", "5", "-stats", "-util", "-trace", "4"},
		0, "reduce 1MB", "over 4 reps", "facility utilization", "timeline")
}

func TestTree(t *testing.T) {
	for _, config := range []string{"topo", "reduce", "chain"} {
		want(t, []string{"tree", "-nodes", "2", "-config", config, "-root", "3"}, 0, "machine:", "edges by lane:")
	}
}

func TestASP(t *testing.T) {
	want(t, []string{"asp", "-mode", "live", "-n", "32", "-ranks", "4"},
		0, "verified against sequential Floyd–Warshall")
	want(t, []string{"asp", "-mode", "sim", "-n", "1024", "-nodes", "1"},
		0, "ASP sim: N=1024 on 32 ranks", "128/1024 iterations executed")
}

// TestBenchTraceRoundTrip regenerates a quick exhibit with every output
// on, then reads its causal trace back with adapt trace.
func TestBenchTraceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ctrace := filepath.Join(dir, "t.json")
	want(t, []string{"bench", "-list"}, 0, "fig7a\n", "ext-fec\n", "all\n")
	want(t, []string{"bench", "-exp", "table1", "-scale", "quick", "-j", "2", "-perf",
		"-csv", filepath.Join(dir, "csv"), "-ctrace", ctrace, "-ctrace-report"},
		0, "== table1", "causal traces:", "longest run")
	if _, err := os.Stat(filepath.Join(dir, "csv", "table1.csv")); err != nil {
		t.Fatal(err)
	}
	want(t, []string{"bench", "-exp", "ext-crash", "-scale", "quick", "-faults", "crash@3", "-admin", "127.0.0.1:0"},
		0, "custom (-faults)")

	runs := want(t, []string{"trace", "-list-runs", ctrace}, 0, "[0] ")
	first := strings.TrimSpace(strings.SplitN(strings.SplitN(runs, "] ", 2)[1], " (", 2)[0])
	want(t, []string{"trace", "-run", "0", "-critical", "-overlap", "-lanes", ctrace}, 0, "run ")
	want(t, []string{"trace", "-run", first, ctrace}, 0)
	want(t, []string{"trace", ctrace}, 0)
	want(t, []string{"trace", "-run", "no such run", ctrace}, 2)
}

func TestScaleCellInProcess(t *testing.T) {
	want(t, []string{"bench", "-ranks-cell", "flat/allreduce/64"}, 0, `"name":"ScaleFlatAllreduce/64"`)
	want(t, []string{"bench", "-ranks-cell", "proc/reduce/64"}, 0, `"name":"ScaleProcReduce/64"`)
}
