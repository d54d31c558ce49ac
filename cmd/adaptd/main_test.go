package main

import (
	"bufio"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"adapt/internal/serve"
	"adapt/internal/testbin"
)

// TestDaemonServesAndDrains runs the built daemon: it announces its
// serving and admin addresses, serves an allreduce, reports healthy, and
// on SIGTERM drains and prints a clean-run summary.
func TestDaemonServesAndDrains(t *testing.T) {
	if testing.Short() {
		t.Skip("daemon process skipped in -short")
	}
	bin := filepath.Join(testbin.Build(t, "."), "adaptd")
	cmd := exec.Command(bin, "-admin", "127.0.0.1:0", "-fuse", "100us", "-perf", "-crash", "2:0", "-crash-group", "churn")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()
	lines := bufio.NewScanner(stdout)
	addr := func(prefix string) string {
		t.Helper()
		if !lines.Scan() || !strings.HasPrefix(lines.Text(), prefix) {
			t.Fatalf("daemon printed %q, want a %q line", lines.Text(), prefix)
		}
		return strings.TrimPrefix(lines.Text(), prefix)
	}
	srvAddr, adminAddr := addr("adaptd: listening on "), addr("adaptd: admin on ")

	const world = 4
	sess, err := serve.Dial(srvAddr, serve.SessionOpts{World: world, ProxyRank: -1})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	vals := make([]float64, world*2)
	for i := range vals {
		vals[i] = float64(i)
	}
	out, err := sess.Allreduce(vals)
	if err != nil {
		t.Fatalf("Allreduce: %v", err)
	}
	if out[0] != 0+2+4+6 || out[1] != 1+3+5+7 {
		t.Fatalf("Allreduce = %v, want [12 16]", out)
	}
	sess.Close()
	resp, err := http.Get("http://" + adminAddr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz: %s", resp.Status)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	var rest strings.Builder
	for lines.Scan() {
		rest.WriteString(lines.Text() + "\n")
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("daemon exit: %v\n%s", err, rest.String())
	}
	for _, want := range []string{"adaptd: draining", "adaptd: served 1 sessions", "trouble 0"} {
		if !strings.Contains(rest.String(), want) {
			t.Errorf("shutdown output lacks %q:\n%s", want, rest.String())
		}
	}
}
