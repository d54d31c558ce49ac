package sim

import (
	"fmt"
	"time"
)

type procState uint8

const (
	stateRunning  procState = iota
	stateSleeping           // blocked in Sleep; only the sleep timer wakes it
	stateParked             // blocked in Park; only Unpark wakes it
)

// Proc is a simulated process: a goroutine that runs cooperatively under
// the kernel, blocking in virtual time via Sleep and Park. All Proc
// methods except Unpark must be called from the process's own goroutine.
type Proc struct {
	k    *Kernel
	Name string

	wake    chan struct{}
	state   procState
	pending bool // an Unpark arrived while not parked; next Park returns at once
	done    bool

	// Recurring event closures, allocated once per process instead of once
	// per Sleep/Unpark: these are the highest-frequency events the MPI
	// substrate schedules (every wait, every completion wake-up, every
	// resource hand-back goes through one of them).
	resumeFn func()
	unparkFn func()
}

// Go spawns a simulated process. Its body starts at the current virtual
// time (after already-queued events at this instant).
func (k *Kernel) Go(name string, fn func(p *Proc)) *Proc {
	p := &Proc{k: k, Name: name, wake: make(chan struct{})}
	p.resumeFn = func() { k.resume(p) }
	p.unparkFn = func() {
		if p.done {
			return
		}
		if p.state == stateParked {
			k.resume(p)
		} else {
			p.pending = true
		}
	}
	k.procs = append(k.procs, p)
	k.live++
	k.Schedule(0, func() {
		go func() {
			<-p.wake
			defer func() {
				if r := recover(); r != nil {
					panic(r)
				}
				// A body that returns and one that leaves through
				// runtime.Goexit (a crashed rank) both retire cleanly: the
				// kernel keeps running the other processes and does not
				// count this one as deadlocked.
				p.done = true
				k.live--
				k.yield <- struct{}{}
			}()
			fn(p)
		}()
		k.resume(p)
	})
	return p
}

// resume hands control to p and blocks the caller (kernel event context)
// until p blocks again, finishes, or otherwise yields.
func (k *Kernel) resume(p *Proc) {
	p.state = stateRunning
	p.wake <- struct{}{}
	<-k.yield
}

// block returns control to the kernel until the process is resumed.
func (p *Proc) block(s procState) {
	p.state = s
	p.k.yield <- struct{}{}
	<-p.wake
}

// Now returns the current virtual time.
func (p *Proc) Now() time.Duration { return p.k.now }

// Sleep blocks the process for d of virtual time. An Unpark delivered
// while sleeping does not shorten the sleep; it is remembered and makes
// the next Park return immediately.
//
// Sleep(0) is a no-op: it returns inline WITHOUT passing through the
// event queue, so — unlike Schedule(0) — it does not yield to
// already-queued same-instant events. Every replay golden and the
// all-substrate conformance grid were recorded under these semantics
// (a zero-duration compute phase costs nothing, including scheduling
// position), so this is a documented contract, pinned by
// TestSleepZeroDoesNotYield, not an oversight.
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative sleep %v", d))
	}
	if d == 0 {
		return
	}
	p.k.Schedule(d, p.resumeFn)
	p.block(stateSleeping)
}

// SleepUntil blocks the process until absolute virtual time t (no-op if t
// is in the past).
func (p *Proc) SleepUntil(t time.Duration) {
	if t > p.k.now {
		p.Sleep(t - p.k.now)
	}
}

// Park blocks until Unpark is called. Wakes are binary-semaphore style:
// an Unpark delivered while the process is running or sleeping makes the
// next Park return immediately, and multiple buffered wakes collapse into
// one — callers must re-check their own condition after Park returns.
func (p *Proc) Park() {
	if p.pending {
		p.pending = false
		return
	}
	p.block(stateParked)
}

// Unpark wakes p if it is blocked in Park, or buffers the wake otherwise.
// It may be called from any simulation context (an event callback or
// another process); the wake is delivered through the event queue,
// preserving determinism. Unparking a finished process is a no-op.
func (p *Proc) Unpark() {
	p.k.Schedule(0, p.unparkFn)
}
