package faults

import (
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"adapt/internal/comm"
)

func TestScopeMatches(t *testing.T) {
	cases := []struct {
		s        Scope
		src, dst int
		want     bool
	}{
		{All(), 0, 1, true},
		{All(), 5, 5, true},
		{Rank(2), 2, 7, true},
		{Rank(2), 7, 2, true},
		{Rank(2), 3, 4, false},
		{Link(0, 1), 0, 1, true},
		{Link(0, 1), 1, 0, false},
		{Link(0, 1), 0, 2, false},
	}
	for _, tc := range cases {
		if got := tc.s.Matches(tc.src, tc.dst); got != tc.want {
			t.Errorf("%s.Matches(%d,%d) = %v, want %v", tc.s, tc.src, tc.dst, got, tc.want)
		}
	}
}

// Verdicts must be a pure function of (plan, identity): two injectors over
// the same plan agree on every decision, and the decision ignores "now"
// except for After gating.
func TestVerdictDeterminism(t *testing.T) {
	plan := Plan{Seed: 42, Rules: []Rule{
		{Scope: All(), DropProb: 0.3, DupProb: 0.2, Jitter: 40 * time.Microsecond},
		{Scope: Link(1, 2), DropProb: 0.5},
	}}
	a, b := NewInjector(plan), NewInjector(plan)
	for id := uint64(1); id < 200; id++ {
		src, dst := int(id%4), int((id+1)%4)
		tag := comm.MakeTag(comm.KindBcast, int(id%7), int(id%5))
		for attempt := 0; attempt < 3; attempt++ {
			va := a.Message(src, dst, tag, id, attempt, time.Microsecond, 100)
			vb := b.Message(src, dst, tag, id, attempt, 999*time.Millisecond, 100)
			if va != vb {
				t.Fatalf("id %d attempt %d: verdicts diverge: %+v vs %+v", id, attempt, va, vb)
			}
			if a.AckDrop(dst, src, tag, id, attempt, 0) != b.AckDrop(dst, src, tag, id, attempt, time.Second) {
				t.Fatalf("id %d attempt %d: ack verdicts diverge", id, attempt)
			}
		}
	}
	if a.Stats() != b.Stats() {
		t.Fatalf("stats diverge: %v vs %v", a.Stats(), b.Stats())
	}
	if a.Stats().Total() == 0 {
		t.Fatal("plan with drop=0.3 injected nothing over 600 attempts")
	}
}

// Different attempts of the same message must draw fresh verdicts, or
// retransmission could never recover from a probabilistic drop.
func TestVerdictVariesByAttempt(t *testing.T) {
	in := NewInjector(Plan{Seed: 7, Rules: []Rule{{Scope: All(), DropProb: 0.5}}})
	tag := comm.MakeTag(comm.KindReduce, 0, 0)
	varied := false
	for id := uint64(1); id < 50 && !varied; id++ {
		v0 := in.Message(0, 1, tag, id, 0, 0, 10)
		v1 := in.Message(0, 1, tag, id, 1, 0, 10)
		varied = v0.Drop != v1.Drop
	}
	if !varied {
		t.Fatal("50 messages, attempts 0 and 1 always agreed on drop at p=0.5")
	}
}

func TestAfterGatesRule(t *testing.T) {
	in := NewInjector(Plan{Seed: 1, Rules: []Rule{
		{Scope: All(), Delay: 50 * time.Microsecond, After: time.Millisecond},
	}})
	tag := comm.MakeTag(comm.KindBcast, 0, 0)
	if v := in.Message(0, 1, tag, 1, 0, 0, 10); v.Extra != 0 {
		t.Fatalf("rule applied before After: %+v", v)
	}
	if v := in.Message(0, 1, tag, 1, 0, 2*time.Millisecond, 10); v.Extra != 50*time.Microsecond {
		t.Fatalf("rule not applied after After: %+v", v)
	}
}

func TestDropSubsumesOtherEffects(t *testing.T) {
	in := NewInjector(Plan{Seed: 3, Rules: []Rule{
		{Scope: All(), DropProb: 1, DupProb: 1, Delay: time.Millisecond},
	}})
	v := in.Message(0, 1, comm.MakeTag(comm.KindBcast, 0, 0), 1, 0, 0, 10)
	if !v.Drop || v.Dup || v.Extra != 0 {
		t.Fatalf("dropped attempt should carry no dup/delay: %+v", v)
	}
	st := in.Stats()
	if st.Drops != 1 || st.Dups != 0 || st.Delays != 0 {
		t.Fatalf("stats: %v", st)
	}
}

func TestSlowBwChargesBySize(t *testing.T) {
	in := NewInjector(Plan{Seed: 1, Rules: []Rule{{Scope: All(), SlowBw: 1e6}}}) // 1 MB/s
	tag := comm.MakeTag(comm.KindBcast, 0, 0)
	v := in.Message(0, 1, tag, 1, 0, 0, 1000) // 1000 B at 1 MB/s = 1ms
	if v.Extra != time.Millisecond {
		t.Fatalf("slow-bandwidth charge = %v, want 1ms", v.Extra)
	}
}

func TestRecoveryTimeout(t *testing.T) {
	r := Recovery{RTO: 100 * time.Microsecond, Backoff: 2, MaxAttempts: 20}
	want := []time.Duration{
		100 * time.Microsecond, 200 * time.Microsecond, 400 * time.Microsecond,
		800 * time.Microsecond, 1600 * time.Microsecond,
	}
	for i, w := range want {
		if got := r.Timeout(i); got != w {
			t.Errorf("Timeout(%d) = %v, want %v", i, got, w)
		}
	}
	if got := r.Timeout(50); got != 64*r.RTO {
		t.Errorf("deep retry timeout = %v, want cap %v", got, 64*r.RTO)
	}
}

func TestRecoveryNormalized(t *testing.T) {
	n := Recovery{}.Normalized()
	if n != DefaultRecovery() {
		t.Fatalf("zero Recovery normalized to %+v, want defaults", n)
	}
	keep := Recovery{RTO: time.Millisecond, Backoff: 3, MaxAttempts: 2,
		SuspectAfter: 4 * time.Millisecond, ConfirmAfter: 9 * time.Millisecond}
	if keep.Normalized() != keep {
		t.Fatal("explicit Recovery fields were overwritten")
	}
	// Detector leases left zero scale with an overridden RTO.
	scaled := Recovery{RTO: time.Millisecond}.Normalized()
	if scaled.SuspectAfter != 8*time.Millisecond || scaled.ConfirmAfter != 16*time.Millisecond {
		t.Fatalf("scaled leases = %v/%v, want 8ms/16ms", scaled.SuspectAfter, scaled.ConfirmAfter)
	}
}

// TestRecoveryTimeoutCapBoundary pins the backoff behaviour at the 64×RTO
// ceiling: the last uncapped attempt, the attempt whose walk lands exactly
// on the cap, and the attempt one past it must all be distinguishable.
func TestRecoveryTimeoutCapBoundary(t *testing.T) {
	r := Recovery{RTO: 100 * time.Microsecond, Backoff: 2, MaxAttempts: 10}
	if got := r.Timeout(5); got != 32*r.RTO {
		t.Errorf("last uncapped attempt: Timeout(5) = %v, want %v", got, 32*r.RTO)
	}
	// 2^6 = 64: the doubling walk exhausts the budget exactly at the cap.
	if got := r.Timeout(6); got != 64*r.RTO {
		t.Errorf("exact-cap attempt: Timeout(6) = %v, want %v", got, 64*r.RTO)
	}
	// One attempt past the boundary stays pinned at the cap.
	if got := r.Timeout(7); got != 64*r.RTO {
		t.Errorf("past-cap attempt: Timeout(7) = %v, want %v", got, 64*r.RTO)
	}
	// A walk that overshoots the cap mid-step (3^4 = 81 > 64) must clamp
	// to exactly 64×RTO, not carry the overshoot.
	over := Recovery{RTO: 100 * time.Microsecond, Backoff: 3, MaxAttempts: 10}
	if got := over.Timeout(4); got != 64*over.RTO {
		t.Errorf("overshooting walk: Timeout(4) = %v, want clamp to %v", got, 64*over.RTO)
	}
}

func TestTimeoutErrorNamesEdgeAndSegment(t *testing.T) {
	err := &TimeoutError{
		Rank: 3, Peer: 5, Tag: comm.MakeTag(comm.KindAllreduce, 12, 4),
		Attempts: 10, Elapsed: 3 * time.Millisecond,
	}
	if err.Segment() != 4 {
		t.Fatalf("Segment() = %d", err.Segment())
	}
	msg := err.Error()
	for _, want := range []string{"rank 3 -> 5", "allreduce", "seq 12", "segment 4", "10 attempts"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q missing %q", msg, want)
		}
	}
}

func TestValidateRejectsBadPlans(t *testing.T) {
	bad := []Plan{
		{Rules: []Rule{{Scope: All(), DropProb: 1.5}}},
		{Rules: []Rule{{Scope: All(), DupProb: -0.1}}},
		{Rules: []Rule{{Scope: All(), Delay: -time.Second}}},
		{Rules: []Rule{{Scope: All(), SlowBw: -1}}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("plan %d validated", i)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("NewInjector accepted an invalid plan")
		}
	}()
	NewInjector(bad[0])
}

func TestEnabled(t *testing.T) {
	if (Plan{Seed: 9}).Enabled() {
		t.Error("empty plan enabled")
	}
	if (Plan{Rules: []Rule{{Scope: All()}}}).Enabled() {
		t.Error("no-effect rule enabled")
	}
	if !(Plan{Rules: []Rule{{Scope: All(), DropProb: 0.1}}}).Enabled() {
		t.Error("drop rule not enabled")
	}
}

func TestParseRoundTrip(t *testing.T) {
	cases := []string{
		"seed=42",
		"seed=42; all: drop=0.1, jitter=30µs",
		"seed=5; all: corrupt=0.2; link 1->2: drop=0.1, corrupt=0.05, jitter=10µs",
		"seed=-7; link 0->1: drop=1, after=1ms; rank 2: delay=100µs@0.25, slow=1e+09",
		"seed=0; all: dup=0.5; link 3->0: drop=0.25, delay=1ms",
	}
	for _, s := range cases {
		p, err := ParsePlan(s)
		if err != nil {
			t.Errorf("ParsePlan(%q): %v", s, err)
			continue
		}
		if got := p.String(); got != s {
			t.Errorf("round trip %q -> %q", s, got)
		}
	}
}

// Canonical form is a fixed point: parse(render(p)).render == render(p)
// for arbitrary generated plans.
func TestStringCanonicalFixedPoint(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 200; i++ {
		p := RandomPlan(rng, 8)
		s := p.String()
		q, err := ParsePlan(s)
		if err != nil {
			t.Fatalf("plan %d: rendered form %q does not parse: %v", i, s, err)
		}
		if again := q.String(); again != s {
			t.Fatalf("plan %d: canonical form unstable:\n%q\n%q", i, s, again)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"seed=x",
		"nonsense",
		"moon 3: drop=1",
		"all: drip=1",
		"all: drop=2",
		"all: delay=fast",
		"link 0: drop=1",
		"rank two: drop=1",
		"all: drop",
	}
	for _, s := range bad {
		if _, err := ParsePlan(s); err == nil {
			t.Errorf("ParsePlan(%q) accepted", s)
		}
	}
}

func TestCrashParseRoundTrip(t *testing.T) {
	cases := []string{
		"seed=1; crash@3",
		"seed=7; crash@2:after5",
		"seed=11; all: drop=0.1; crash@0; crash@4:after12",
	}
	for _, s := range cases {
		p, err := ParsePlan(s)
		if err != nil {
			t.Errorf("ParsePlan(%q): %v", s, err)
			continue
		}
		if got := p.String(); got != s {
			t.Errorf("round trip %q -> %q", s, got)
		}
	}
}

func TestCrashParseAndValidateErrors(t *testing.T) {
	bad := []string{
		"crash@",
		"crash@x",
		"crash@2:later5",
		"crash@2:afterK",
		"crash@-1",         // negative rank
		"crash@2:after-3",  // negative send count
		"crash@2; crash@2", // duplicate target rank
		"crash@5; crash@5:after3",
	}
	for _, s := range bad {
		if _, err := ParsePlan(s); err == nil {
			t.Errorf("ParsePlan(%q) accepted", s)
		}
	}
}

func TestCrashPlanSemantics(t *testing.T) {
	p := MustParsePlan("seed=1; crash@2:after4; crash@5")
	if !p.Enabled() {
		t.Error("crash-only plan not enabled")
	}
	if len(p.Rules) != 0 {
		t.Errorf("crash statements produced %d message rules", len(p.Rules))
	}
	if k, ok := p.CrashAt(2); !ok || k != 4 {
		t.Errorf("CrashAt(2) = %d,%v, want 4,true", k, ok)
	}
	if k, ok := p.CrashAt(5); !ok || k != 0 {
		t.Errorf("CrashAt(5) = %d,%v, want 0,true", k, ok)
	}
	if _, ok := p.CrashAt(0); ok {
		t.Error("CrashAt(0) reported a schedule for an untargeted rank")
	}
}

func TestRandomPlanConvergesUnderDefaults(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		p := RandomPlan(rng, 6)
		if err := p.Validate(); err != nil {
			t.Fatalf("RandomPlan produced invalid plan: %v", err)
		}
		for _, r := range p.Rules {
			if r.DropProb > 0.35 {
				t.Fatalf("RandomPlan drop %g exceeds recovery budget", r.DropProb)
			}
		}
	}
}

// Corrupt verdicts are a distinct, counted flavor of loss: deterministic
// per identity, suppressing dup on the same attempt, never co-occurring
// with a drop verdict (the drop wins), and treated as ack loss on the
// reverse link.
func TestCorruptVerdicts(t *testing.T) {
	p := MustParsePlan("seed=17; all: corrupt=0.5")
	in := NewInjector(p)
	sawCorrupt, sawClean := false, false
	for id := uint64(1); id <= 64; id++ {
		v := in.Message(0, 1, comm.MakeTag(comm.KindBcast, 1, int(id)), id, 0, 0, 256)
		if v.Drop {
			t.Fatal("corrupt-only plan produced a drop verdict")
		}
		if v.Corrupt {
			sawCorrupt = true
			if v.Dup {
				t.Fatal("corrupt verdict kept its dup")
			}
		} else {
			sawClean = true
		}
		again := in.Message(0, 1, comm.MakeTag(comm.KindBcast, 1, int(id)), id, 0, 0, 256)
		if again.Corrupt != v.Corrupt {
			t.Fatal("corrupt verdict not deterministic per identity")
		}
	}
	if !sawCorrupt || !sawClean {
		t.Fatalf("corrupt=0.5 over 64 draws: corrupt=%v clean=%v", sawCorrupt, sawClean)
	}
	if st := in.Stats(); st.Corrupts == 0 || st.Total() == 0 {
		t.Fatalf("stats did not count corrupts: %+v", st)
	}
	// A corrupted ack is a lost ack.
	ackLost := false
	for id := uint64(1); id <= 64; id++ {
		if in.AckDrop(1, 0, comm.MakeTag(comm.KindBcast, 1, 0), id, 0, 0) {
			ackLost = true
		}
	}
	if !ackLost {
		t.Fatal("corrupt rule never lost an ack on the reverse link")
	}
}

// Full jitter: two senders that timed out together draw different
// backoff waits (desynchronizing the retransmit storm), each wait stays
// inside [RTO, Timeout(attempt)], attempt 0 is untouched, and the whole
// schedule is reproducible from the seed.
func TestFullJitterDesynchronizesSenders(t *testing.T) {
	rec := Recovery{FullJitter: true, JitterSeed: 42}.Normalized()
	if got := rec.RetryDelay(0, 1); got != rec.RTO {
		t.Fatalf("attempt 0 delay %v, want plain RTO %v", got, rec.RTO)
	}
	// Two senders = two transmission ids, timed out on the same attempt.
	diverged := false
	for attempt := 1; attempt < 6; attempt++ {
		a := rec.RetryDelay(attempt, 101)
		b := rec.RetryDelay(attempt, 202)
		hi := rec.Timeout(attempt)
		for _, d := range []time.Duration{a, b} {
			if d < rec.RTO || d > hi {
				t.Fatalf("attempt %d: jittered delay %v outside [%v, %v]", attempt, d, rec.RTO, hi)
			}
		}
		if a != b {
			diverged = true
		}
		if again := rec.RetryDelay(attempt, 101); again != a {
			t.Fatalf("attempt %d: jittered delay not reproducible", attempt)
		}
	}
	if !diverged {
		t.Fatal("two timed-out senders never desynchronized across 5 attempts")
	}
	// Different seeds give different schedules; jitter off is the old law.
	other := rec
	other.JitterSeed = 43
	if rec.RetryDelay(3, 101) == other.RetryDelay(3, 101) {
		t.Fatal("jitter schedule ignores the seed")
	}
	plain := Recovery{}.Normalized()
	for attempt := 0; attempt < 6; attempt++ {
		if plain.RetryDelay(attempt, 7) != plain.Timeout(attempt) {
			t.Fatalf("FullJitter off: RetryDelay differs from Timeout at attempt %d", attempt)
		}
	}
}

// TestFailuresLedgerConcurrent: Fail is safe from many goroutines (run
// under -race), every call lands in the ledger and the timeout counter
// exactly once, Failures hands back a copy, and a nil injector (no plan
// installed) reports no failures.
func TestFailuresLedgerConcurrent(t *testing.T) {
	var none *Injector
	if got := none.Failures(); got != nil {
		t.Fatalf("nil injector: Failures = %v, want nil", got)
	}
	in := NewInjector(Plan{})
	const writers, each = 8, 100
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				in.Fail(&TimeoutError{Rank: g, Peer: i, Attempts: 1})
				_ = in.Failures()
			}
		}()
	}
	wg.Wait()
	got := in.Failures()
	if len(got) != writers*each {
		t.Fatalf("ledger holds %d failures, want %d", len(got), writers*each)
	}
	if ts := in.Stats().Timeouts; ts != writers*each {
		t.Fatalf("timeouts counted %d, want %d", ts, writers*each)
	}
	// Per writer, the ledger keeps call order.
	next := make([]int, writers)
	for _, e := range got {
		if e.Peer != next[e.Rank] {
			t.Fatalf("writer %d: failure %d recorded out of order (want %d)", e.Rank, e.Peer, next[e.Rank])
		}
		next[e.Rank]++
	}
	got[0] = nil
	if in.Failures()[0] == nil {
		t.Fatal("Failures returned the ledger itself, not a copy")
	}
}
