package conform

import (
	"time"

	"adapt/internal/comm"
	"adapt/internal/core"
	"adapt/internal/faults"
	"adapt/internal/netmodel"
	"adapt/internal/noise"
	"adapt/internal/sim"
	"adapt/internal/simmpi"
	"adapt/internal/trees"
)

// Fail-stop conformance: the survivor-set analogue of the lossy-plan
// grid. A crash case runs a fault-tolerant collective under a crash
// schedule and must (a) complete on every survivor, (b) report one
// identical survivor mask everywhere, and (c) deliver payloads that are
// byte-identical to the crash-free run restricted to the survivor set —
// the dead rank may cost detection and repair time, never bytes.

// CrashCase is one fault-tolerant collective under the fail-stop model.
// In builds rank r's input; Run invokes the FT engine and returns its
// structured per-rank outcome. Like Case, Run takes the abstract
// endpoint so crash cases replay on any fail-stop-capable substrate.
type CrashCase struct {
	Name string
	In   func(rank int) comm.Msg
	Run  func(c comm.Comm, in comm.Msg, opt core.Options) core.FTResult
}

// CrashResult is one simulated run of a crash case. Ranks that died
// mid-run never return from Run, so their slots keep zero values (nil
// Out, nil Mask, nil Err) — Crashed says which ones those are.
type CrashResult struct {
	// Out is each surviving rank's result payload (nil for size-only
	// results, dead ranks, and ranks that returned an error).
	Out [][]byte
	// Masks is each surviving rank's reported survivor set.
	Masks [][]bool
	// Errs is each surviving rank's structured error (nil on success; a
	// *faults.RankFailedError when the root died).
	Errs []error
	// Crashed is the per-rank death mask at the end of the run.
	Crashed []bool
	// End is the virtual completion time.
	End time.Duration
	// KernelErr is the kernel's verdict; a crash run conforms only when
	// the kernel still terminates cleanly (no deadlock).
	KernelErr error
	// Det counts detector activity: suspicions, confirmations, repairs.
	Det faults.DetectorStats
	// Stats counts message-level fault injection (zero for crash-only
	// plans: crashes kill ranks, they do not touch live traffic).
	Stats faults.Stats
}

// RunCrashCase executes cs on platform p under plan's crash schedule. A
// nil plan runs the crash-free golden path through the same FT engines.
func RunCrashCase(p *netmodel.Platform, cs CrashCase, opt core.Options, plan *faults.Plan, rec faults.Recovery) CrashResult {
	k := sim.New()
	w := simmpi.NewWorld(k, p, noise.None)
	if plan != nil && plan.Enabled() {
		w.InstallFaults(*plan, rec)
	}
	n := w.Size()
	out := make([][]byte, n)
	masks := make([][]bool, n)
	errs := make([]error, n)
	w.Spawn(func(c *simmpi.Comm) {
		res := cs.Run(c, cs.In(c.Rank()), opt)
		errs[c.Rank()] = res.Err
		if res.Survivors != nil {
			masks[c.Rank()] = append([]bool(nil), res.Survivors...)
		}
		if res.Err == nil && res.Msg.Data != nil {
			out[c.Rank()] = append([]byte(nil), res.Msg.Data...)
		}
	})
	end, err := k.Run()
	return CrashResult{
		Out: out, Masks: masks, Errs: errs, Crashed: w.Crashed(),
		End: end, KernelErr: err, Det: w.DetectorStats(), Stats: w.FaultStats(),
	}
}

// CrashCases enumerates the fault-tolerant collectives for an n-rank
// world with the given payload size. The root is fixed at 0: crash plans
// target non-root ranks, and the dead-root abort path gets its own
// dedicated cases in the tests.
func CrashCases(n, size int) []CrashCase {
	binom := trees.Binomial(n, 0)
	chain := trees.Chain(n, 0)
	return []CrashCase{
		{
			Name: "ft/bcast-binomial",
			In:   rootData("ft/bcast-binomial", 0, size),
			Run: func(c comm.Comm, in comm.Msg, opt core.Options) core.FTResult {
				return core.BcastFT(c, binom, in, opt)
			},
		},
		{
			Name: "ft/bcast-chain",
			In:   rootData("ft/bcast-chain", 0, size),
			Run: func(c comm.Comm, in comm.Msg, opt core.Options) core.FTResult {
				return core.BcastFT(c, chain, in, opt)
			},
		},
		{
			Name: "ft/reduce-binomial",
			In:   contribLattice(size),
			Run: func(c comm.Comm, in comm.Msg, opt core.Options) core.FTResult {
				return core.ReduceFT(c, binom, in, opt)
			},
		},
		{
			Name: "ft/reduce-chain",
			In:   contribLattice(size),
			Run: func(c comm.Comm, in comm.Msg, opt core.Options) core.FTResult {
				return core.ReduceFT(c, chain, in, opt)
			},
		},
	}
}
