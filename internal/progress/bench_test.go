package progress_test

import (
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"adapt/internal/comm"
	"adapt/internal/core"
	"adapt/internal/progress"
	"adapt/internal/runtime"
	"adapt/internal/trees"
)

// BenchmarkMultiCollective is the shared-progress-engine gate: one rank-0
// scheduler drives N communicators × M concurrent broadcasts per
// iteration while the other ranks run blocking waits. It reports
// throughput ("ops/s": collective completions per wall second) and tail
// latency ("p99-ns": 99th-percentile per-operation completion time);
// make bench runs it.
func BenchmarkMultiCollective(b *testing.B) {
	for _, cfg := range []struct{ comms, ops int }{
		{1, 4},
		{4, 4},
		{8, 8},
	} {
		b.Run(fmt.Sprintf("c%dxm%d", cfg.comms, cfg.ops), func(b *testing.B) {
			benchMultiCollective(b, cfg.comms, cfg.ops)
		})
	}
}

func benchMultiCollective(b *testing.B, nComms, mOps int) {
	const (
		ranks = 4
		size  = 32 << 10 // rendezvous-size: exercises RTS/CTS under load
	)
	tree := trees.Binomial(ranks, 0)
	worlds := make([]*runtime.World, nComms)
	for i := range worlds {
		worlds[i] = runtime.NewWorld(ranks)
	}

	// Non-root ranks: plain blocking participants, one goroutine each.
	var wg sync.WaitGroup
	for wi := 0; wi < nComms; wi++ {
		for r := 1; r < ranks; r++ {
			wg.Add(1)
			go func(wi, r int) {
				defer wg.Done()
				c := worlds[wi].Rank(r)
				ops := make([]*core.Op, mOps)
				for iter := 0; iter < b.N; iter++ {
					for m := 0; m < mOps; m++ {
						opt := core.DefaultOptions()
						opt.Seq = iter*mOps + m
						ops[m] = core.StartBcast(c, tree, comm.Sized(size), opt)
					}
					for _, op := range ops {
						op.Wait()
					}
				}
			}(wi, r)
		}
	}

	lat := make([]time.Duration, 0, b.N*nComms*mOps)
	b.ResetTimer()
	start := time.Now()
	for iter := 0; iter < b.N; iter++ {
		items := make([]*progress.Scheduled, 0, nComms*mOps)
		for wi := 0; wi < nComms; wi++ {
			c := worlds[wi].Rank(0)
			for m := 0; m < mOps; m++ {
				opt := core.DefaultOptions()
				opt.Seq = iter*mOps + m
				items = append(items, &progress.Scheduled{
					C:  c,
					Op: core.StartBcast(c, tree, comm.Sized(size), opt),
				})
			}
		}
		sched := progress.NewScheduler(items...)
		t0 := time.Now()
		times := make([]time.Duration, len(items))
		done := 0
		sched.DriveUntil(func() bool {
			for i, it := range items {
				if times[i] == 0 && it.DoneTick != 0 {
					times[i] = time.Since(t0)
					done++
				}
			}
			return done == len(items)
		})
		now := time.Since(t0)
		for i := range times {
			if times[i] == 0 {
				times[i] = now
			}
		}
		lat = append(lat, times...)
	}
	elapsed := time.Since(start)
	b.StopTimer()
	wg.Wait()

	total := b.N * nComms * mOps
	b.ReportMetric(float64(total)/elapsed.Seconds(), "ops/s")
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	p99 := lat[len(lat)*99/100]
	b.ReportMetric(float64(p99.Nanoseconds()), "p99-ns")
}
