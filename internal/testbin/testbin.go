// Package testbin builds the repository's commands for tests that run
// them as subprocesses. When the test itself runs under coverage, the
// binaries are built with -cover too, and they and their own children
// write their counters into the test's coverage directory, so the
// merged profile of make cover includes what the subprocesses ran.
package testbin

import (
	"flag"
	"os/exec"
	"testing"
)

// coverPkg is the package set make cover instruments; subprocess
// binaries use the same set so their counters merge with the tests'.
const coverPkg = "adapt/internal/...,adapt/cmd/..."

// Build compiles the main packages pkgs into a temporary directory, one
// binary per package named after its directory, and returns that
// directory.
func Build(t testing.TB, pkgs ...string) string {
	t.Helper()
	dir := t.TempDir()
	args := []string{"build", "-o", dir + "/"}
	if mode := testing.CoverMode(); mode != "" {
		args = append(args, "-cover", "-covermode="+mode, "-coverpkg="+coverPkg)
		if f := flag.Lookup("test.gocoverdir"); f != nil && f.Value.String() != "" {
			t.Setenv("GOCOVERDIR", f.Value.String())
		}
	}
	if out, err := exec.Command("go", append(args, pkgs...)...).CombinedOutput(); err != nil {
		t.Fatalf("go build %v: %v\n%s", pkgs, err, out)
	}
	return dir
}
