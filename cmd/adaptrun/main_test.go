package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"adapt/internal/testbin"
	"adapt/internal/trace"
)

// End-to-end: build the real binary and drive real OS processes over TCP
// loopback. Skipped in -short (each scenario forks a process tree).

func buildAdaptrun(t *testing.T) string {
	t.Helper()
	return filepath.Join(testbin.Build(t, "."), "adaptrun")
}

func TestE2ECleanVerified(t *testing.T) {
	if testing.Short() {
		t.Skip("process e2e skipped in -short")
	}
	bin := buildAdaptrun(t)
	out, err := exec.Command(bin, "-n", "8", "-coll", "bcast,reduce,allreduce", "-perf").CombinedOutput()
	if err != nil {
		t.Fatalf("clean run failed: %v\n%s", err, out)
	}
	text := string(out)
	for _, want := range []string{
		"core/bcast-binomial", "core/reduce", "core/allreduce",
		"verified against simmpi golden", "trouble 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
}

// TestE2ECrashDeadRoot kills the root worker process before it sends a
// byte: the launcher must report a structured rank-failed outcome from
// every survivor — the acceptance criterion for the fail-stop path.
func TestE2ECrashDeadRoot(t *testing.T) {
	if testing.Short() {
		t.Skip("process e2e skipped in -short")
	}
	bin := buildAdaptrun(t)
	out, err := exec.Command(bin, "-n", "4", "-coll", "bcast", "-crash", "0:0").CombinedOutput()
	if err != nil {
		t.Fatalf("dead-root run not structured: %v\n%s", err, out)
	}
	text := string(out)
	if !strings.Contains(text, "lost (planned crash)") {
		t.Errorf("launcher did not notice the planned crash:\n%s", text)
	}
	if strings.Count(text, "rank-failed") != 3 {
		t.Errorf("want 3 survivors reporting rank-failed:\n%s", text)
	}
	if !strings.Contains(text, "confirmed dead") {
		t.Errorf("survivor errors are not the structured RankFailedError:\n%s", text)
	}
}

// TestE2ECrashNonRootHeals kills a mid-tree worker; both collectives must
// heal and complete on the survivors.
func TestE2ECrashNonRootHeals(t *testing.T) {
	if testing.Short() {
		t.Skip("process e2e skipped in -short")
	}
	bin := buildAdaptrun(t)
	out, err := exec.Command(bin, "-n", "4", "-coll", "bcast,reduce", "-crash", "2:1").CombinedOutput()
	if err != nil {
		t.Fatalf("healed run failed: %v\n%s", err, out)
	}
	text := string(out)
	if strings.Count(text, "ok (4 ranks") != 2 {
		t.Errorf("want both FT collectives ok on survivors:\n%s", text)
	}
}

// TestE2ETraceFiles: -trace writes one Perfetto-loadable causal trace
// per worker process.
func TestE2ETraceFiles(t *testing.T) {
	if testing.Short() {
		t.Skip("process e2e skipped in -short")
	}
	bin := buildAdaptrun(t)
	dir := t.TempDir()
	if out, err := exec.Command(bin, "-n", "2", "-coll", "bcast", "-trace", dir).CombinedOutput(); err != nil {
		t.Fatalf("traced run failed: %v\n%s", err, out)
	}
	for r := 0; r < 2; r++ {
		f, err := os.Open(filepath.Join(dir, fmt.Sprintf("rank%d.json", r)))
		if err != nil {
			t.Fatal(err)
		}
		runs, err := trace.ReadChrome(f)
		f.Close()
		if err != nil || len(runs) != 1 || len(runs[0].Records) == 0 {
			t.Errorf("rank %d trace: %d runs, err %v; want one non-empty run", r, len(runs), err)
		}
	}
}
