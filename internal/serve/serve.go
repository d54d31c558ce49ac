// Package serve is the collective-as-a-service layer: a persistent
// daemon (cmd/adaptd) that accepts streams of collective requests from
// many concurrent client sessions over a length-prefixed framed
// protocol and executes them on cached backend worlds — the in-process
// goroutine runtime or real TCP-loopback nettransport endpoints.
//
// Architecture:
//
//   - Sessions. Each client connection is one session. Its Hello frame
//     names a backend key (world size, group, tag space, optional proxy
//     rank); repeat clients with the same key share one cached backend
//     world and skip all setup.
//   - Backends. A backend owns one world plus one long-lived executor
//     goroutine per rank. Every job — allreduce, survivor-set FT
//     reduce, proxy op — runs as a non-blocking operation under the
//     rank's progress.Scheduler (many jobs in flight, fair round-robin);
//     a crash-armed backend admits one FT job at a time per rank, since
//     a restarted FT reduction's epoch tags reach into the next
//     request's. Proxy backends apply raw point-to-point
//     operations for a daemon-backed comm.Comm adapter (RemoteComm), so
//     the conformance grid runs its collectives through the daemon.
//   - Fusing. Same-shape allreduces arriving within a fuse window merge
//     into one collective over a concatenated vector and the result is
//     demultiplexed by offset. Element positions never mix, and the
//     per-element fold order over ranks is the tree order either way,
//     so fused execution is byte-identical to unfused execution.
//   - Admission. Per-session in-flight caps and a per-backend admission
//     token pool reject excess load with a typed Overloaded error
//     instead of queueing without bound; sessions drain in-flight work
//     before close (Bye handshake). The scheduler's Live/Poke/Compact
//     hooks bound per-rank concurrency and keep a persistent scheduler
//     from growing forever.
//   - Membership. A crashing rank trips the existing failure detector;
//     in-flight FT collectives heal their trees and complete on the
//     survivor set, dead-root requests fail with a typed RankFailed
//     error, and the degraded backend is evicted from the cache so new
//     sessions get a fresh generation while live sessions keep their
//     healed world.
package serve

import (
	"errors"
	"fmt"
	"time"

	"adapt/internal/faults"
)

// Code classifies a request-level failure on the wire.
type Code uint8

const (
	// CodeOK is never sent; the zero value marks success internally.
	CodeOK Code = iota
	// CodeOverloaded: admission control rejected the request — the
	// session's in-flight cap or the backend's queue depth is exhausted.
	CodeOverloaded
	// CodeBadRequest: the request is malformed or illegal for the
	// session's backend (wrong shape, wrong mode, bad binding).
	CodeBadRequest
	// CodeRankFailed: a backend rank died and the operation could not
	// complete on the survivor set (dead root), or the session was bound
	// to the dead rank.
	CodeRankFailed
	// CodeShutdown: the daemon is draining and accepts no new work.
	CodeShutdown
	// CodeInternal: unexpected server-side failure.
	CodeInternal
)

func (c Code) String() string {
	switch c {
	case CodeOK:
		return "ok"
	case CodeOverloaded:
		return "overloaded"
	case CodeBadRequest:
		return "bad-request"
	case CodeRankFailed:
		return "rank-failed"
	case CodeShutdown:
		return "shutdown"
	default:
		return "internal"
	}
}

// RequestError is the typed request-level failure clients receive.
// errors.Is matches on Code, so errors.Is(err, ErrOverloaded) holds for
// any overload rejection regardless of message text.
type RequestError struct {
	Code Code
	Msg  string
}

func (e *RequestError) Error() string {
	if e.Msg == "" {
		return "serve: " + e.Code.String()
	}
	return fmt.Sprintf("serve: %s: %s", e.Code, e.Msg)
}

// Is matches any RequestError with the same code.
func (e *RequestError) Is(target error) bool {
	t, ok := target.(*RequestError)
	return ok && t.Code == e.Code
}

// Sentinels for errors.Is checks.
var (
	ErrOverloaded = &RequestError{Code: CodeOverloaded}
	ErrBadRequest = &RequestError{Code: CodeBadRequest}
	ErrRankFailed = &RequestError{Code: CodeRankFailed}
	ErrShutdown   = &RequestError{Code: CodeShutdown}
)

// ErrSessionClosed reports an operation on a session whose connection
// already closed.
var ErrSessionClosed = errors.New("serve: session closed")

// Config tunes a Server. Zero values take the documented defaults.
type Config struct {
	// Addr is the TCP listen address; default "127.0.0.1:0".
	Addr string

	// Backend selects the substrate for service worlds: "runtime"
	// (default; in-process goroutine endpoints, supports chaos plans) or
	// "net" (TCP-loopback nettransport endpoints, supports fail-stop
	// crash plans and the live failure detector).
	Backend string

	// FuseWindow is how long a same-shape allreduce waits for companions
	// to merge with. Zero disables fusing.
	FuseWindow time.Duration
	// FuseMaxReqs caps one fused batch; default 16.
	FuseMaxReqs int

	// QueueDepth is the per-backend admission token pool: at most this
	// many jobs queued or running per backend; default 64.
	QueueDepth int
	// SessionPending caps in-flight requests per session; default 32.
	SessionPending int
	// MaxConcurrent bounds concurrently scheduled collectives per
	// backend rank; default 8.
	MaxConcurrent int
	// MaxSessions caps concurrent sessions; default 4096.
	MaxSessions int
	// MaxWorld caps the per-session backend world size; default 64.
	MaxWorld int

	// DrainTimeout bounds Close's wait for live sessions; default 10s.
	DrainTimeout time.Duration

	// Chaos, when non-nil, is installed into every runtime-backend world
	// (seeded drops/dups/delays with Recovery-driven retries).
	Chaos    *faults.Plan
	Recovery faults.Recovery

	// Crashes arms fail-stop crash rules on net-backend worlds whose
	// group equals CrashGroup — the membership-churn path.
	Crashes    []faults.Crash
	CrashGroup string

	// EagerLimit overrides the backend eager/rendezvous switch-over.
	EagerLimit int
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:0"
	}
	if c.Backend == "" {
		c.Backend = "runtime"
	}
	if c.FuseMaxReqs <= 0 {
		c.FuseMaxReqs = 16
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.SessionPending <= 0 {
		c.SessionPending = 32
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 8
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 4096
	}
	if c.MaxWorld <= 0 {
		c.MaxWorld = 64
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	return c
}
