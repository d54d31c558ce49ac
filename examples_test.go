package adapt_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"adapt/internal/testbin"
)

// TestExamples builds and runs every program under examples/. Each must
// exit 0; quickstart checks its payloads and deeplearning its
// convergence, so they fail on a wrong result too.
func TestExamples(t *testing.T) {
	if testing.Short() {
		t.Skip("examples skipped in -short")
	}
	entries, err := os.ReadDir("examples")
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []string
	for _, e := range entries {
		pkgs = append(pkgs, "./examples/"+e.Name())
	}
	dir := testbin.Build(t, pkgs...)
	for _, e := range entries {
		name := e.Name()
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			if out, err := exec.Command(filepath.Join(dir, name)).CombinedOutput(); err != nil {
				t.Fatalf("examples/%s: %v\n%s", name, err, out)
			}
		})
	}
}
