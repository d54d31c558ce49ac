// Package perf is the observability substrate for the hot paths: cheap
// process-wide counters fed by the simulation kernel (events dispatched,
// heap peak) and the segment-buffer pool (gets, reuse hits, recycles).
//
// Counter updates are a handful of atomic adds per *kernel run* or per
// *buffer operation*, never per event, so instrumentation cannot distort
// the measurements it reports. Everything here is aggregate: determinism
// of simulation results is unaffected by who reads or resets the
// counters, including under parallel experiment sweeps.
package perf

import (
	"fmt"
	"io"
	"reflect"
	"sync/atomic"
)

var (
	kernelRuns       atomic.Uint64
	eventsDispatched atomic.Uint64
	eventsScheduled  atomic.Uint64
	heapPeak         atomic.Int64 // max event-queue length seen by any kernel

	bufGets    atomic.Uint64 // pool Get calls
	bufHits    atomic.Uint64 // Gets satisfied from the pool (no allocation)
	bufPuts    atomic.Uint64 // pool Put calls
	bufRecycle atomic.Uint64 // Puts retained for reuse (size-class match)

	// Fault-injection / recovery path (internal/faults). All zero in a
	// clean run — TestCleanRunFaultCountersZero (internal/conform) gates it.
	faultDrops      atomic.Uint64 // messages (or acks) lost in flight
	faultDups       atomic.Uint64 // duplicate copies injected
	faultCorrupts   atomic.Uint64 // payloads damaged in flight (detected, discarded)
	faultDelays     atomic.Uint64 // messages charged extra latency
	faultRetries    atomic.Uint64 // retransmissions performed
	faultTimeouts   atomic.Uint64 // operations failed after all attempts
	faultSuppressed atomic.Uint64 // duplicate arrivals deduplicated

	// Erasure-coded segment stream (internal/fec + the transports' group
	// framers). Encoded/reconstructed move only when FEC is enabled;
	// group-lost counts the groups that fell past the parity budget and
	// went back to the ARQ retransmit path. TestFECSweepGate
	// (internal/bench) asserts that the loss sweep repairs losses from
	// parity and that reconstructable loss leaves the retransmit counter
	// at zero.
	fecEncoded       atomic.Uint64 // parity shards encoded and sent
	fecReconstructed atomic.Uint64 // data segments rebuilt from parity
	fecGroupLost     atomic.Uint64 // groups with more erasures than parity

	// Fail-stop failure detection / tree repair. All zero in a clean run —
	// TestCleanRunDetectorCountersZero (internal/conform) gates it.
	detectorSuspects atomic.Uint64 // suspicion leases expired
	detectorConfirms atomic.Uint64 // deaths confirmed by the detector
	treeRepairs      atomic.Uint64 // tree self-healing passes triggered

	// TCP transport (internal/nettransport). Frame/byte counters move on
	// every socket run; dial retries and peer-downs stay zero on a clean
	// loopback link — TestE2ECleanVerified (cmd/adaptrun) gates on that.
	netFramesOut   atomic.Uint64 // frames written to peer sockets
	netBytesOut    atomic.Uint64 // bytes written (headers + payload)
	netFramesIn    atomic.Uint64 // frames read from peer sockets
	netBytesIn     atomic.Uint64 // bytes read
	netDialRetries atomic.Uint64 // mesh dials that needed a backoff retry
	netPeerDowns   atomic.Uint64 // connections lost without a Bye handshake

	// Serving layer (internal/serve). Sessions/requests/fusing move on
	// every daemon run; overloads, rank failures, and rank deaths stay
	// zero on a clean unsaturated run — TestServeLoadPointsClean
	// (internal/serve) gates on that.
	serveSessions   atomic.Uint64 // client sessions accepted
	serveRequests   atomic.Uint64 // collective requests admitted
	serveFusedBatch atomic.Uint64 // fused batches executed (>1 request)
	serveFusedReqs  atomic.Uint64 // requests that rode in a fused batch
	serveOverloads  atomic.Uint64 // typed Overloaded rejections
	serveRankFails  atomic.Uint64 // requests failed with RankFailed
	serveRankDeaths atomic.Uint64 // backend ranks observed dead
)

// RecordKernelRun publishes one kernel's counter deltas after a Run.
func RecordKernelRun(dispatched, scheduled uint64, queuePeak int) {
	kernelRuns.Add(1)
	eventsDispatched.Add(dispatched)
	eventsScheduled.Add(scheduled)
	for {
		cur := heapPeak.Load()
		if int64(queuePeak) <= cur || heapPeak.CompareAndSwap(cur, int64(queuePeak)) {
			return
		}
	}
}

// RecordBufGet counts one pool Get; hit reports whether it was satisfied
// without allocating.
func RecordBufGet(hit bool) {
	bufGets.Add(1)
	if hit {
		bufHits.Add(1)
	}
}

// RecordBufPut counts one pool Put; retained reports whether the buffer
// matched a size class and was kept for reuse.
func RecordBufPut(retained bool) {
	bufPuts.Add(1)
	if retained {
		bufRecycle.Add(1)
	}
}

// RecordFaultDrop counts one injected message (or ack) loss.
func RecordFaultDrop() { faultDrops.Add(1) }

// RecordFaultDup counts one injected duplicate copy.
func RecordFaultDup() { faultDups.Add(1) }

// RecordFaultCorrupt counts one payload damaged in flight (and detected
// — by the frame CRC on the wire, or modeled directly in-process).
func RecordFaultCorrupt() { faultCorrupts.Add(1) }

// RecordFecEncoded counts m parity shards encoded for one group.
func RecordFecEncoded(m int) { fecEncoded.Add(uint64(m)) }

// RecordFecReconstructed counts one data segment rebuilt from parity.
func RecordFecReconstructed() { fecReconstructed.Add(1) }

// RecordFecGroupLost counts one group whose erasures exceeded its
// parity — recovery falls back to the ARQ retransmit path.
func RecordFecGroupLost() { fecGroupLost.Add(1) }

// RecordFaultDelay counts one message charged extra latency.
func RecordFaultDelay() { faultDelays.Add(1) }

// RecordFaultRetry counts one retransmission.
func RecordFaultRetry() { faultRetries.Add(1) }

// RecordFaultTimeout counts one operation failed after all attempts.
func RecordFaultTimeout() { faultTimeouts.Add(1) }

// RecordFaultSuppressed counts one deduplicated duplicate arrival.
func RecordFaultSuppressed() { faultSuppressed.Add(1) }

// RecordDetectorSuspect counts one expired suspicion lease.
func RecordDetectorSuspect() { detectorSuspects.Add(1) }

// RecordDetectorConfirm counts one detector-confirmed rank death.
func RecordDetectorConfirm() { detectorConfirms.Add(1) }

// RecordTreeRepair counts one tree self-healing pass.
func RecordTreeRepair() { treeRepairs.Add(1) }

// RecordNetFrameOut counts one frame of n wire bytes written to a socket.
func RecordNetFrameOut(n int) {
	netFramesOut.Add(1)
	netBytesOut.Add(uint64(n))
}

// RecordNetFrameIn counts one frame of n wire bytes read from a socket.
func RecordNetFrameIn(n int) {
	netFramesIn.Add(1)
	netBytesIn.Add(uint64(n))
}

// RecordNetDialRetry counts one mesh dial attempt that failed and backed
// off before retrying.
func RecordNetDialRetry() { netDialRetries.Add(1) }

// RecordNetPeerDown counts one peer connection lost without the clean
// shutdown handshake (the failure detector's trigger).
func RecordNetPeerDown() { netPeerDowns.Add(1) }

// RecordServeSession counts one accepted client session.
func RecordServeSession() { serveSessions.Add(1) }

// RecordServeRequest counts one admitted collective request.
func RecordServeRequest() { serveRequests.Add(1) }

// RecordServeFused counts one fused batch carrying k (>1) requests.
func RecordServeFused(k int) {
	serveFusedBatch.Add(1)
	serveFusedReqs.Add(uint64(k))
}

// RecordServeOverload counts one typed Overloaded admission rejection.
func RecordServeOverload() { serveOverloads.Add(1) }

// RecordServeRankFail counts one request failed with RankFailed.
func RecordServeRankFail() { serveRankFails.Add(1) }

// RecordServeRankDeath counts one backend rank observed dead.
func RecordServeRankDeath() { serveRankDeaths.Add(1) }

// Snapshot is a point-in-time view of the counters.
type Snapshot struct {
	KernelRuns       uint64
	EventsDispatched uint64
	EventsScheduled  uint64
	HeapPeak         int64

	BufGets     uint64
	BufHits     uint64
	BufPuts     uint64
	BufRecycled uint64

	FaultDrops      uint64
	FaultDups       uint64
	FaultCorrupts   uint64
	FaultDelays     uint64
	FaultRetries    uint64
	FaultTimeouts   uint64
	FaultSuppressed uint64

	FecEncoded       uint64
	FecReconstructed uint64
	FecGroupLost     uint64

	DetectorSuspects uint64
	DetectorConfirms uint64
	TreeRepairs      uint64

	NetFramesOut   uint64
	NetBytesOut    uint64
	NetFramesIn    uint64
	NetBytesIn     uint64
	NetDialRetries uint64
	NetPeerDowns   uint64

	ServeSessions   uint64
	ServeRequests   uint64
	ServeFusedBatch uint64
	ServeFusedReqs  uint64
	ServeOverloads  uint64
	ServeRankFails  uint64
	ServeRankDeaths uint64
}

// FaultTotal sums every fault-path counter; non-zero means the fault
// injection or recovery machinery ran.
func (s Snapshot) FaultTotal() uint64 {
	return s.FaultDrops + s.FaultDups + s.FaultCorrupts + s.FaultDelays +
		s.FaultRetries + s.FaultTimeouts + s.FaultSuppressed
}

// FecTotal sums the erasure-coding counters; non-zero means the FEC
// layer encoded, repaired, or abandoned at least one group.
func (s Snapshot) FecTotal() uint64 {
	return s.FecEncoded + s.FecReconstructed + s.FecGroupLost
}

// DetectorTotal sums the failure-detection counters; non-zero means a
// rank crash was suspected, confirmed, or repaired around.
func (s Snapshot) DetectorTotal() uint64 {
	return s.DetectorSuspects + s.DetectorConfirms + s.TreeRepairs
}

// NetTrouble sums the TCP transport's trouble counters: dial retries and
// unclean connection losses. Zero on a healthy loopback run —
// TestE2ECleanVerified (cmd/adaptrun) asserts exactly that.
func (s Snapshot) NetTrouble() uint64 {
	return s.NetDialRetries + s.NetPeerDowns
}

// ServeTrouble sums the serving layer's trouble counters: admission
// rejections, rank-failed requests, and rank deaths. Zero on a clean
// unsaturated daemon run — TestServeLoadPointsClean asserts exactly that.
func (s Snapshot) ServeTrouble() uint64 {
	return s.ServeOverloads + s.ServeRankFails + s.ServeRankDeaths
}

// Read returns the current counter values.
func Read() Snapshot {
	return Snapshot{
		KernelRuns:       kernelRuns.Load(),
		EventsDispatched: eventsDispatched.Load(),
		EventsScheduled:  eventsScheduled.Load(),
		HeapPeak:         heapPeak.Load(),
		BufGets:          bufGets.Load(),
		BufHits:          bufHits.Load(),
		BufPuts:          bufPuts.Load(),
		BufRecycled:      bufRecycle.Load(),
		FaultDrops:       faultDrops.Load(),
		FaultDups:        faultDups.Load(),
		FaultCorrupts:    faultCorrupts.Load(),
		FaultDelays:      faultDelays.Load(),
		FaultRetries:     faultRetries.Load(),
		FaultTimeouts:    faultTimeouts.Load(),
		FaultSuppressed:  faultSuppressed.Load(),
		FecEncoded:       fecEncoded.Load(),
		FecReconstructed: fecReconstructed.Load(),
		FecGroupLost:     fecGroupLost.Load(),
		DetectorSuspects: detectorSuspects.Load(),
		DetectorConfirms: detectorConfirms.Load(),
		TreeRepairs:      treeRepairs.Load(),
		NetFramesOut:     netFramesOut.Load(),
		NetBytesOut:      netBytesOut.Load(),
		NetFramesIn:      netFramesIn.Load(),
		NetBytesIn:       netBytesIn.Load(),
		NetDialRetries:   netDialRetries.Load(),
		NetPeerDowns:     netPeerDowns.Load(),
		ServeSessions:    serveSessions.Load(),
		ServeRequests:    serveRequests.Load(),
		ServeFusedBatch:  serveFusedBatch.Load(),
		ServeFusedReqs:   serveFusedReqs.Load(),
		ServeOverloads:   serveOverloads.Load(),
		ServeRankFails:   serveRankFails.Load(),
		ServeRankDeaths:  serveRankDeaths.Load(),
	}
}

// Reset zeroes all counters (tests, per-phase accounting).
func Reset() {
	kernelRuns.Store(0)
	eventsDispatched.Store(0)
	eventsScheduled.Store(0)
	heapPeak.Store(0)
	bufGets.Store(0)
	bufHits.Store(0)
	bufPuts.Store(0)
	bufRecycle.Store(0)
	faultDrops.Store(0)
	faultDups.Store(0)
	faultCorrupts.Store(0)
	faultDelays.Store(0)
	faultRetries.Store(0)
	faultTimeouts.Store(0)
	faultSuppressed.Store(0)
	fecEncoded.Store(0)
	fecReconstructed.Store(0)
	fecGroupLost.Store(0)
	detectorSuspects.Store(0)
	detectorConfirms.Store(0)
	treeRepairs.Store(0)
	netFramesOut.Store(0)
	netBytesOut.Store(0)
	netFramesIn.Store(0)
	netBytesIn.Store(0)
	netDialRetries.Store(0)
	netPeerDowns.Store(0)
	serveSessions.Store(0)
	serveRequests.Store(0)
	serveFusedBatch.Store(0)
	serveFusedReqs.Store(0)
	serveOverloads.Store(0)
	serveRankFails.Store(0)
	serveRankDeaths.Store(0)
}

// Delta returns the per-window counter movement between prev and s:
// every monotonic counter field becomes s.field - prev.field, so a
// periodic scraper (the admin /statusz window, perfbench's layer
// spans) reports rates instead of process-lifetime totals. HeapPeak
// is a high-water mark, not a counter — the current value carries
// over. A counter that went backwards (perf.Reset between snapshots)
// reports the current value rather than a wrapped difference.
//
// Implemented by reflection over the Snapshot fields so a counter
// added to the struct is in the delta automatically — the same
// future-proofing contract the export-coverage test enforces on
// Fprint and JSON.
func (s Snapshot) Delta(prev Snapshot) Snapshot {
	out := s
	ov := reflect.ValueOf(&out).Elem()
	pv := reflect.ValueOf(prev)
	for i := 0; i < ov.NumField(); i++ {
		f := ov.Field(i)
		if f.Kind() != reflect.Uint64 {
			continue // HeapPeak (int64 high-water mark) carries over
		}
		cur, old := f.Uint(), pv.Field(i).Uint()
		if old > cur {
			continue // reset between snapshots: report the current value
		}
		f.SetUint(cur - old)
	}
	return out
}

// Fprint renders the snapshot as a small human-readable report.
func (s Snapshot) Fprint(w io.Writer) {
	fmt.Fprintf(w, "perf: %d kernel runs, %d events dispatched (%d scheduled), heap peak %d\n",
		s.KernelRuns, s.EventsDispatched, s.EventsScheduled, s.HeapPeak)
	hitRate, recRate := 0.0, 0.0
	if s.BufGets > 0 {
		hitRate = 100 * float64(s.BufHits) / float64(s.BufGets)
	}
	if s.BufPuts > 0 {
		recRate = 100 * float64(s.BufRecycled) / float64(s.BufPuts)
	}
	fmt.Fprintf(w, "perf: buffer pool %d gets (%d hits, %.0f%% reuse), %d puts (%d recycled, %.0f%%)\n",
		s.BufGets, s.BufHits, hitRate, s.BufPuts, s.BufRecycled, recRate)
	if s.FaultTotal() > 0 {
		fmt.Fprintf(w, "perf: faults %d drops, %d dups, %d corrupts, %d delays; recovery %d retries, %d timeouts, %d suppressed\n",
			s.FaultDrops, s.FaultDups, s.FaultCorrupts, s.FaultDelays, s.FaultRetries, s.FaultTimeouts, s.FaultSuppressed)
	}
	if s.FecTotal() > 0 {
		fmt.Fprintf(w, "perf: fec %d parity encoded, %d segments reconstructed, %d groups lost to ARQ\n",
			s.FecEncoded, s.FecReconstructed, s.FecGroupLost)
	}
	if s.DetectorTotal() > 0 {
		fmt.Fprintf(w, "perf: detector %d suspects, %d confirms; %d tree repairs\n",
			s.DetectorSuspects, s.DetectorConfirms, s.TreeRepairs)
	}
	if s.NetFramesOut+s.NetFramesIn > 0 {
		fmt.Fprintf(w, "perf: net %d frames out (%d B), %d frames in (%d B); %d dial retries, %d peer downs\n",
			s.NetFramesOut, s.NetBytesOut, s.NetFramesIn, s.NetBytesIn, s.NetDialRetries, s.NetPeerDowns)
	}
	if s.ServeSessions > 0 {
		fmt.Fprintf(w, "perf: serve %d sessions, %d requests (%d fused into %d batches); trouble %d (%d overloads, %d rank fails, %d rank deaths)\n",
			s.ServeSessions, s.ServeRequests, s.ServeFusedReqs, s.ServeFusedBatch,
			s.ServeTrouble(), s.ServeOverloads, s.ServeRankFails, s.ServeRankDeaths)
	}
}
