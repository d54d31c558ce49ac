package simmpi

// Flat rank-scheduling mode: a rank is a struct, not a goroutine.
//
// The goroutine-per-rank Proc costs an 8KiB+ stack and two channel
// handoffs per context switch — the real ceiling on simulated scale
// (~1.5k ranks comfortably, 100k painfully, 1M not at all). But the
// collective state machines in internal/core are already event-driven:
// they post operations and react to completions via OnComplete
// callbacks. The only reason a rank needed a goroutine was the blocking
// surface (Wait/Progress/Compute-as-Sleep). Flat mode removes it:
//
//   - The rank body runs once, in kernel event context, and must only
//     INITIATE work (Start* collectives, Isend/Irecv, OnComplete). Any
//     blocking call panics via the engine's Block hook.
//   - Completion callbacks run from deduplicated kernel "drain" events:
//     every engine wake arms (at most) one drain at the rank's
//     availability horizon, which fires callbacks through
//     progress.DrainWhile gated on the rank's busy clock.
//   - Compute advances the busy clock (Comm.busyUntil) without
//     blocking. Sends issued while the clock runs ahead of virtual time
//     launch lagged to it (Comm.sendLag), and callbacks queued behind a
//     compute charge wait for it — reproducing the proc mode's
//     virtual-time trajectory, byte for byte on the collectives'
//     results and makespans (TestFlatMatchesProcMode).
//
// Scale: a flat rank is ~300 bytes of structs instead of a goroutine
// stack, and dispatching its events costs no context switch — the
// difference between 100k ranks thrashing the scheduler and 1M ranks in
// one flat event loop (adaptbench -ranks; BENCH_kernel.json).
//
// Fault injection (chaos/crash) keeps the proc-mode requirement: the
// crash machinery kills a rank by panicking its goroutine, which flat
// ranks do not have. SpawnFlat refuses a world with faults armed.

// SpawnFlat registers one flat (goroutine-free) rank driver per rank.
// body runs once per rank at virtual time zero, in kernel event
// context, and must only initiate nonblocking work: Start* collectives,
// Isend/Irecv, OnComplete, OnIdle. Blocking calls (Wait, Progress,
// Recv, blocking collectives, Ssend) panic. Call Kernel.Run afterwards
// to execute the simulation; use OnIdle to observe per-rank completion
// and chain phases.
func (w *World) SpawnFlat(body func(c *Comm)) {
	if w.inj != nil || w.crash != nil {
		panic("simmpi: flat mode does not support fault injection (crash/chaos kill rank goroutines; flat ranks have none)")
	}
	for _, c := range w.ranks {
		c := c
		c.flat = true
		c.drainFn = c.drainFlat
		w.K.Schedule(0, func() { body(c) })
	}
}

// OnIdle registers fn to fire, in kernel event context, whenever this
// flat rank drains to zero operations in flight. It is level-triggered
// and may fire more than once (every drain that ends idle re-fires it),
// so fn must check its own phase state; typical drivers use it to
// harvest a finished collective's result and start the next phase.
func (c *Comm) OnIdle(fn func()) {
	if !c.flat {
		panic("simmpi: OnIdle on a proc-mode rank")
	}
	c.onIdle = fn
}

// armDrain schedules this rank's completion-callback drain at its
// availability horizon, deduplicating: while one drain event is in
// flight no second one is scheduled. Called from the engine's Wake hook
// (kernel event context — completions, parked arrivals, notices).
func (c *Comm) armDrain() {
	if c.drainArmed {
		return
	}
	c.drainArmed = true
	now := c.w.K.Now()
	// Fold noise and the busy clock into the wake-up time, exactly as
	// the proc mode's Block hook does via noiseResume.
	avail := c.noiseSrc.AvailableAt(now, c.busyUntil)
	c.busyUntil = avail
	c.w.K.Schedule(avail-now, c.drainFn)
}

// drainFlat is the rank's drain event: fire queued completion callbacks
// while the rank's busy clock permits, re-arm if a callback pushed the
// clock past now with work still queued, and report idleness.
func (c *Comm) drainFlat() {
	c.drainArmed = false
	c.DrainWhile(func() bool { return c.busyUntil <= c.w.K.Now() })
	if c.PendingCallbacks() > 0 || c.busyUntil > c.w.K.Now() {
		// A callback's compute charge advanced the clock mid-drain: the
		// remaining callbacks belong at the new horizon — and even with
		// none queued, the busy clock must be realized as a kernel event
		// so a trailing compute extends the makespan exactly as the proc
		// mode's sleep does.
		c.armDrain()
		return
	}
	if c.onIdle != nil && c.Pending() == 0 {
		c.onIdle()
	}
}
