package progress

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// RunGuard is the live substrates' rank runner: one goroutine per rank,
// panics aggregated across ranks, and an optional watchdog.
type RunGuard struct {
	Prefix  string        // panic-message prefix (the substrate)
	Timeout time.Duration // 0 = wait forever
	Dump    func() string // pending-operation dump for the watchdog
	fired   atomic.Bool
}

// Run executes body once per listed rank, each on its own goroutine,
// and blocks until all return. If any ranks panic, Run re-panics with
// every rank's failure (not just the first drained one) so a bug that
// kills several ranks at once is diagnosable from a single message. If
// the ranks are still running after Timeout, Run panics with the dump
// instead of hanging the caller — deliberately leaking the stuck
// goroutines; the dump is emitted at most once per guard, so concurrent
// Runs that time out together do not interleave two dumps.
func (g *RunGuard) Run(ranks []int, body func(rank int)) {
	var wg sync.WaitGroup
	panics := make(chan string, len(ranks))
	for _, r := range ranks {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					panics <- fmt.Sprintf("rank %d: %v", r, p)
				}
			}()
			body(r)
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	if g.Timeout > 0 {
		t := time.NewTimer(g.Timeout)
		defer t.Stop()
		select {
		case <-done:
		case <-t.C:
			if g.fired.CompareAndSwap(false, true) {
				panic(fmt.Sprintf("%s: Run still incomplete after %v\n%s", g.Prefix, g.Timeout, g.Dump()))
			}
			panic(fmt.Sprintf("%s: Run still incomplete after %v (pending-op dump already emitted by an earlier watchdog)",
				g.Prefix, g.Timeout))
		}
	} else {
		<-done
	}
	close(panics)
	var msgs []string
	for p := range panics {
		msgs = append(msgs, p)
	}
	switch len(msgs) {
	case 0:
	case 1:
		panic(msgs[0])
	default:
		sort.Strings(msgs) // goroutine finish order is nondeterministic
		panic(fmt.Sprintf("%s: %d ranks panicked:\n%s", g.Prefix, len(msgs), strings.Join(msgs, "\n")))
	}
}
