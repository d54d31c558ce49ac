package bench

import (
	"fmt"
	"sort"
	"time"

	"adapt/internal/comm"
	"adapt/internal/faults"
	"adapt/internal/fec"
	"adapt/internal/netmodel"
	"adapt/internal/noise"
	"adapt/internal/sim"
	"adapt/internal/simmpi"
)

// The FEC loss-sweep exhibit: a segment stream over one lossy link,
// priced two ways at every rung of a loss ladder — ARQ alone (every loss
// costs a retransmit round trip at the RTO) versus ARQ plus erasure
// coding (losses within the group's parity are reconstructed at the
// receiver and cost no round trip). The sweep reports p50/p99 makespan
// over a seed population, so the tail — where the RTO round trips live —
// is visible next to the median. FECReport's gate re-asserts the
// tentpole invariant inside the sweep itself (TestFECSweepGate holds it):
// across every FEC run of the sweep, a run with no lost group must show
// zero retransmits, and at least one run must have repaired real losses
// that way.

// FECRow is one (loss, mode) point of the sweep, aggregated over seeds.
type FECRow struct {
	Loss          float64
	Mode          string // "arq" or "fec"
	P50Ns         int64
	P99Ns         int64
	Drops         uint64
	Retries       uint64
	Reconstructed uint64
	GroupsLost    uint64
}

// FECGate is the sweep's pass/fail summary.
type FECGate struct {
	// ZeroRetransmitWithinParity: every FEC run whose groups all repaired
	// retransmitted nothing.
	ZeroRetransmitWithinParity bool
	// RepairExercised: at least one FEC run saw losses, reconstructed
	// them, and retransmitted nothing — the claim is not vacuous.
	RepairExercised bool
}

// FECReport is the aggregated sweep: one row per (loss, mode) point.
type FECReport struct {
	Segments int
	SegBytes int
	Seeds    int
	K        int
	M        int
	Gate     FECGate
	Rows     []FECRow
}

// fecCell is one simulated stream run.
type fecCell struct {
	Makespan time.Duration
	Stats    faults.Stats
	FEC      fec.Stats
	Lost     int // sends that exhausted the attempt budget
}

const (
	fecSweepSegments = 64
	fecSweepSegBytes = 512
	fecSweepK        = 4
	fecSweepM        = 2
)

// fecSweepLosses is the loss ladder (forward link-scoped, so acks ride
// clean and every retransmit is attributable to data loss).
var fecSweepLosses = []float64{0, 0.02, 0.05, 0.1}

// fecStreamRun streams fecSweepSegments eager segments 0→1 under the
// given forward loss rate, with or without the FEC layer.
func fecStreamRun(seed int, loss float64, withFEC bool) fecCell {
	k := sim.New()
	w := simmpi.NewWorld(k, netmodel.Cori(2), noise.None)
	plan := faults.MustParsePlan(fmt.Sprintf("seed=%d; link 0->1: drop=%g", seed, loss))
	w.InstallFaults(plan, faults.DefaultRecovery())
	if withFEC {
		w.EnableFEC(fec.Config{K: fecSweepK, M: fecSweepM})
	}
	w.Spawn(func(c *simmpi.Comm) {
		switch c.Rank() {
		case 0:
			// Isend the whole stream before waiting, so groups fill to K
			// instead of trickling one segment per ack round trip.
			rs := make([]comm.Request, fecSweepSegments)
			for i := range rs {
				rs[i] = c.Isend(1, comm.MakeTag(comm.KindP2P, 0, i), comm.Sized(fecSweepSegBytes))
			}
			c.WaitAll(rs)
		case 1:
			for i := 0; i < fecSweepSegments; i++ {
				c.Recv(0, comm.MakeTag(comm.KindP2P, 0, i))
			}
		}
	})
	return fecCell{Makespan: k.MustRun(), Stats: w.FaultStats(), FEC: w.FECStats(), Lost: len(w.Failures())}
}

// fecSeeds is the seed population per (loss, mode) point.
func (s Scale) fecSeeds() int {
	if s.NoiseReps >= 12 { // full scale
		return 25
	}
	return 9
}

// durPercentile returns the p-quantile of a sorted duration slice.
func durPercentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}

// FECSweep runs the full ladder × {arq, fec} × seeds grid and aggregates
// it into the report. Deterministic: virtual time, seeded plans.
func (s Scale) FECSweep() FECReport {
	seeds := s.fecSeeds()
	rep := FECReport{
		Segments: fecSweepSegments,
		SegBytes: fecSweepSegBytes,
		Seeds:    seeds,
		K:        fecSweepK,
		M:        fecSweepM,
		Gate:     FECGate{ZeroRetransmitWithinParity: true},
	}
	for _, loss := range fecSweepLosses {
		for _, mode := range []string{"arq", "fec"} {
			loss, withFEC := loss, mode == "fec"
			spans := make([]time.Duration, 0, seeds)
			row := FECRow{Loss: loss, Mode: mode}
			for seed := 1; seed <= seeds; seed++ {
				seed := seed
				cell := s.cell(func() any { return fecStreamRun(seed, loss, withFEC) }, fecCell{}).(fecCell)
				spans = append(spans, cell.Makespan)
				row.Drops += cell.Stats.Drops
				row.Retries += cell.Stats.Retries
				row.Reconstructed += cell.FEC.Reconstructed
				row.GroupsLost += cell.FEC.GroupsLost
				if withFEC {
					if cell.FEC.GroupsLost == 0 && cell.Stats.Retries != 0 {
						rep.Gate.ZeroRetransmitWithinParity = false
					}
					if cell.Stats.Drops > 0 && cell.FEC.Reconstructed > 0 && cell.Stats.Retries == 0 {
						rep.Gate.RepairExercised = true
					}
				}
			}
			sort.Slice(spans, func(i, j int) bool { return spans[i] < spans[j] })
			row.P50Ns = durPercentile(spans, 0.50).Nanoseconds()
			row.P99Ns = durPercentile(spans, 0.99).Nanoseconds()
			rep.Rows = append(rep.Rows, row)
		}
	}
	return rep
}

// GateErr returns nil when the report's gates hold, or a descriptive
// error naming the gate that failed.
func (r FECReport) GateErr() error {
	if !r.Gate.ZeroRetransmitWithinParity {
		return fmt.Errorf("bench: FEC run retransmitted with every group repaired (zero-retransmit gate)")
	}
	if !r.Gate.RepairExercised {
		return fmt.Errorf("bench: no FEC run exercised the zero-retransmit repair path (vacuous sweep)")
	}
	return nil
}

// ExtFEC renders the sweep as the ext-fec exhibit table.
func (s Scale) ExtFEC() []*Table {
	rep := s.FECSweep()
	t := &Table{
		ID: "ext-fec",
		Title: fmt.Sprintf("Segment stream under loss, ARQ vs FEC(k=%d,m=%d), %d×%dB segments, %d seeds (cori)",
			rep.K, rep.M, rep.Segments, rep.SegBytes, rep.Seeds),
		Header: []string{"loss", "arq p50 ms", "arq p99 ms", "fec p50 ms", "fec p99 ms",
			"retries arq/fec", "reconstructed", "groups lost"},
		Notes: []string{
			"extension beyond the paper: erasure-coded segment streams; loss within parity repairs with zero retransmits",
		},
	}
	for i := 0; i+1 < len(rep.Rows); i += 2 {
		arq, fecRow := rep.Rows[i], rep.Rows[i+1]
		t.AddRow(fmt.Sprintf("%.0f%%", 100*arq.Loss),
			ms(time.Duration(arq.P50Ns)), ms(time.Duration(arq.P99Ns)),
			ms(time.Duration(fecRow.P50Ns)), ms(time.Duration(fecRow.P99Ns)),
			fmt.Sprintf("%d/%d", arq.Retries, fecRow.Retries),
			fmt.Sprint(fecRow.Reconstructed), fmt.Sprint(fecRow.GroupsLost))
	}
	return []*Table{t}
}
