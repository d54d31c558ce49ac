package comm

// Fail-stop extension of the Comm contract.
//
// A substrate that models rank crashes (a fault plan with crash rules
// installed) implements FailStop on its Comm endpoints. Collectives that
// tolerate crashes — the FT variants in internal/core — type-assert to it
// and fall back to the plain algorithms when the substrate does not
// implement it or no crash rules are armed.
//
// The model is fail-stop with a world-level lease detector: a crashed
// rank stops executing instantly, its in-flight traffic is annihilated
// (connection-teardown semantics), and after the Recovery policy's
// ConfirmAfter lease expires every surviving rank receives a death
// Notice via its out-of-band control plane. Notices are events: the
// rank's progress drain hands each one, in delivery order, to the
// watchers in flight (the FT collectives' state machines), from the same
// owner context as completion callbacks. Nothing blocks on the control
// plane itself.

// NoticeKind discriminates control-plane notices.
type NoticeKind uint8

const (
	// NoticeDeath: the failure detector confirmed Rank dead.
	NoticeDeath NoticeKind = iota
	// NoticeCommit: the collective with sequence Seq committed on the
	// Survivors set (root's decision, fanned out by the control plane).
	NoticeCommit
)

// Notice is one out-of-band control-plane event delivered to a rank.
type Notice struct {
	Kind NoticeKind
	// Rank is the confirmed-dead rank (NoticeDeath).
	Rank int
	// Seq is the committed collective sequence number (NoticeCommit).
	Seq int
	// Survivors is the committed survivor mask (NoticeCommit); true for
	// every rank whose contribution/delivery the commit covers.
	Survivors []bool
}

// FailStop is the crash-model extension a substrate's Comm implements.
// Like Comm itself, every method is owner-goroutine-only.
type FailStop interface {
	// CrashesEnabled reports whether crash rules are armed in this world.
	// When false the FT collectives run their fault-free fallback.
	CrashesEnabled() bool
	// ConfirmedDead returns a fresh per-rank mask of detector-confirmed
	// deaths as of now.
	ConfirmedDead() []bool
	// Watch subscribes fn to this rank's notices until stop is called:
	// each notice reaches fn on the owner goroutine, in delivery order,
	// once the callbacks queued before it have fired. The watch counts
	// as one operation in flight, so a rank waiting purely on the control
	// plane can still Progress.
	Watch(fn func(Notice)) (stop func())
	// CancelRecv retracts a posted, still-unmatched receive: the request
	// is marked done and its callback will never fire. Returns false if
	// the receive already matched (its completion callback still runs).
	CancelRecv(r Request) bool
	// Commit fans a NoticeCommit for (seq, survivors) out to every live
	// rank via the control plane. Root-only by convention.
	Commit(seq int, survivors []bool)
}
