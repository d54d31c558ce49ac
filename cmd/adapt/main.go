// Command adapt is the project's command-line tool. Each subcommand is
// one job:
//
//	adapt bench   regenerate the paper's exhibits; the kernel-scaling ladder
//	adapt sim     one simulated collective with free-form parameters
//	adapt tree    inspect the topology-aware communication trees
//	adapt trace   analyze causal traces written by adapt bench -ctrace
//	adapt ctl     terminal client for a running adaptd's admin plane
//	adapt asp     the all-pairs shortest-path application (paper §5.3)
//
// Run "adapt <subcommand> -h" for a subcommand's flags. Exit status 2
// means a usage error, 1 a runtime failure.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
)

// subcommands maps each subcommand name to its entry point. Every entry
// point parses its own flags and returns the process exit status.
var subcommands = map[string]func(args []string, stdout, stderr io.Writer) int{
	"bench": runBench,
	"sim":   runSim,
	"tree":  runTree,
	"trace": runTrace,
	"ctl":   runCtl,
	"asp":   runASP,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		if sub, ok := subcommands[args[0]]; ok {
			return sub(args[1:], stdout, stderr)
		}
	}
	fmt.Fprintln(stderr, "usage: adapt bench|sim|tree|trace|ctl|asp [flags] (adapt <subcommand> -h lists its flags)")
	return 2
}

// newFlags returns an empty flag set for one subcommand that reports
// parse errors instead of exiting.
func newFlags(sub string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet("adapt "+sub, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

// failed reports a runtime failure of subcommand sub and returns its
// exit status.
func failed(stderr io.Writer, sub string, err error) int {
	fmt.Fprintf(stderr, "adapt %s: %v\n", sub, err)
	return 1
}
