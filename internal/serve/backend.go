package serve

import (
	"fmt"
	"sync"
	"sync/atomic"

	"adapt/internal/comm"
	"adapt/internal/core"
	"adapt/internal/nettransport"
	"adapt/internal/perf"
	"adapt/internal/pool"
	"adapt/internal/progress"
	"adapt/internal/runtime"
	"adapt/internal/trees"
)

// backendKey identifies a cached communicator world: sessions with the
// same (world size, group, tag space, mode) share one backend and skip
// all mesh setup.
type backendKey struct {
	world    int
	group    string
	tagspace uint32
	proxy    bool
}

func (k backendKey) String() string {
	mode := "service"
	if k.proxy {
		mode = "proxy"
	}
	return fmt.Sprintf("%s/world=%d/ts=%d/%s", k.group, k.world, k.tagspace, mode)
}

// backendWorld abstracts the two substrates a backend can own.
type backendWorld interface {
	rankComm(r int) comm.Comm
	close()
}

type rtWorld struct{ w *runtime.World }

func (x rtWorld) rankComm(r int) comm.Comm { return x.w.Rank(r) }
func (x rtWorld) close()                   {}

type netWorld struct{ w *nettransport.LocalWorld }

func (x netWorld) rankComm(r int) comm.Comm { return x.w.Rank(r) }
func (x netWorld) close()                   { x.w.Close() }

type jobKind uint8

const (
	jobAllreduce jobKind = iota
	jobReduceFT
	jobIsend
	jobIrecv
)

// job is one unit of backend work. Service jobs (allreduce, FT reduce)
// are fanned to every rank's executor; proxy jobs (isend/irecv) go to
// one bound rank only.
type job struct {
	kind jobKind
	seq  int
	in   [][]byte // per-rank private contribution (service jobs)

	// Proxy fields.
	sess *session
	opID uint64
	peer int
	tag  comm.Tag
	msg  comm.Msg
	t0   int64 // metrics.Clock() at admission (0 = telemetry off)

	remaining atomic.Int32
	once      sync.Once
	mu        sync.Mutex
	out       []byte
	deliver   func(out []byte, mask []bool, err error)
}

// dropPayload returns a proxy send's pooled payload copy once nothing
// can reference it: the op never reached the substrate, or the send
// completed.
func (j *job) dropPayload() {
	if j.msg.Data != nil {
		comm.PutBuf(j.msg.Data)
		j.msg.Data = nil
	}
}

// opts builds the collective options for a service job; the centrally
// assigned seq keeps concurrent jobs' tags disjoint on every rank.
func (j *job) opts() core.Options {
	opt := core.DefaultOptions()
	opt.Seq = j.seq
	return opt
}

// rankDone retires a scheduled allreduce on one rank; the last rank
// fires delivery with rank 0's result (all ranks hold identical bytes).
// Every rank's result is its own contribution overwritten in place, so
// rank 0's stays valid until delivery releases the job's buffers.
func (j *job) rankDone(rank int, out comm.Msg) {
	if rank == 0 {
		j.mu.Lock()
		j.out = out.Data
		j.mu.Unlock()
	}
	if j.remaining.Add(-1) == 0 {
		j.mu.Lock()
		out := j.out
		j.mu.Unlock()
		j.once.Do(func() { j.deliver(out, nil, nil) })
	}
}

// ftDone settles an FT job from whichever rank reaches a decisive
// outcome first: the root's committed result, or any survivor's typed
// failure (which covers a dead root, whose own executor is gone).
func (j *job) ftDone(rank int, res core.FTResult) {
	if res.Err != nil {
		perf.RecordServeRankFail()
		j.once.Do(func() {
			j.deliver(nil, nil, &RequestError{Code: CodeRankFailed, Msg: res.Err.Error()})
		})
		return
	}
	if rank == 0 {
		out := append([]byte(nil), res.Msg.Data...)
		mask := append([]bool(nil), res.Survivors...)
		j.once.Do(func() { j.deliver(out, mask, nil) })
	}
}

// backend is one cached world: per-rank executor goroutines, an
// admission token pool, a fuser, and membership state.
type backend struct {
	srv   *Server
	key   backendKey
	gen   uint64
	n     int
	w     backendWorld
	armed bool // fail-stop crash rules armed: serialized FT execution
	tree  *trees.Tree

	jobCh  []chan *job
	scheds []*progress.Scheduler
	admit  chan struct{}
	stopCh chan struct{}
	wg     sync.WaitGroup
	fuse   *fuser

	stopOnce  sync.Once
	closeOnce sync.Once

	mu        sync.Mutex
	refs      pool.Ref // live sessions bound to this backend
	evicted   bool
	dead      []bool
	seqNext   int
	proxySess []*session // per-rank proxy binding
}

// newBackend builds the world for key and starts its executors.
func newBackend(s *Server, key backendKey, gen uint64) (*backend, error) {
	b := &backend{
		srv:       s,
		key:       key,
		gen:       gen,
		n:         key.world,
		stopCh:    make(chan struct{}),
		admit:     make(chan struct{}, s.cfg.QueueDepth),
		dead:      make([]bool, key.world),
		tree:      trees.Binomial(key.world, 0),
		proxySess: make([]*session, key.world),
	}
	b.armed = !key.proxy && s.cfg.Backend == "net" &&
		len(s.cfg.Crashes) > 0 && key.group == s.cfg.CrashGroup

	switch s.cfg.Backend {
	case "runtime":
		var opts []runtime.Option
		if s.cfg.EagerLimit > 0 {
			opts = append(opts, runtime.WithEagerLimit(s.cfg.EagerLimit))
		}
		if s.cfg.Chaos != nil {
			opts = append(opts, runtime.WithFaults(*s.cfg.Chaos, s.cfg.Recovery))
		}
		b.w = rtWorld{w: runtime.NewWorld(key.world, opts...)}
	case "net":
		var opts []nettransport.Option
		if s.cfg.EagerLimit > 0 {
			opts = append(opts, nettransport.WithEagerLimit(s.cfg.EagerLimit))
		}
		if b.armed {
			opts = append(opts, nettransport.WithCrashes(s.cfg.Crashes))
		}
		opts = append(opts, nettransport.WithDeathHook(func(rank int) {
			b.noteDead(rank)
		}))
		w, err := nettransport.NewLocalWorld(key.world, opts...)
		if err != nil {
			return nil, fmt.Errorf("serve: backend %s: %w", key, err)
		}
		b.w = netWorld{w: w}
	default:
		return nil, fmt.Errorf("serve: unknown backend substrate %q", s.cfg.Backend)
	}

	b.fuse = newFuser(b, s.cfg.FuseWindow, s.cfg.FuseMaxReqs)
	b.jobCh = make([]chan *job, b.n)
	b.scheds = make([]*progress.Scheduler, b.n)
	depth := s.cfg.QueueDepth + 64 // slack: tokens release at delivery, slots at retirement
	if key.proxy {
		depth = 4096 // proxy ops are flow-controlled by TCP, not tokens
	}
	for r := 0; r < b.n; r++ {
		b.jobCh[r] = make(chan *job, depth)
		b.scheds[r] = progress.NewScheduler()
	}
	for r := 0; r < b.n; r++ {
		b.wg.Add(1)
		go b.executor(r)
	}
	return b, nil
}

func (b *backend) stopped() bool {
	select {
	case <-b.stopCh:
		return true
	default:
		return false
	}
}

// shutdown stops the executors and closes the world. Safe to call from
// several goroutines; every caller returns once teardown finished. Must
// not run on an executor goroutine (wg.Wait would self-deadlock) — the
// eviction path defers to a fresh goroutine for that reason.
func (b *backend) shutdown() {
	b.stopOnce.Do(func() {
		close(b.stopCh)
		for _, s := range b.scheds {
			s.Poke()
		}
	})
	b.wg.Wait()
	b.closeOnce.Do(func() { b.w.close() })
}

// noteDead records a confirmed rank death (detector hook or the rank's
// own executor exiting at its crash point): the backend degrades and is
// evicted from the cache so new sessions get a fresh generation, and
// proxy sessions bound to the dead rank get a structured session error.
func (b *backend) noteDead(rank int) {
	b.mu.Lock()
	if rank < 0 || rank >= b.n || b.dead[rank] {
		b.mu.Unlock()
		return
	}
	b.dead[rank] = true
	bound := b.proxySess[rank]
	b.mu.Unlock()
	perf.RecordServeRankDeath()
	b.sweepDead(rank)
	if bound != nil {
		bound.sessionError(&RequestError{
			Code: CodeRankFailed,
			Msg:  fmt.Sprintf("backend rank %d confirmed dead", rank),
		})
	}
	b.srv.evictBackend(b)
}

// sweepDead retires jobs already queued on a dead rank's channel: its
// executor is gone, so nothing else will ever drain them, and a leaked
// job pins its admission token forever. Safe to drain without the lock:
// dead[rank] is set under b.mu before this runs, so submitService will
// never enqueue here again, and a rank is only confirmed dead once its
// executor goroutine has exited (fail-stop crashes Goexit the executor
// itself), so there is no competing consumer.
//
// Plain allreduces cannot complete without the rank, so their queued
// copies fail with a typed error (releasing the token via the deliver
// wrapper). FT jobs are left to the surviving executors, which run the
// collective over the healed tree and settle delivery through ftDone.
// Proxy ops fail back onto their bound session.
func (b *backend) sweepDead(rank int) {
	for {
		select {
		case j := <-b.jobCh[rank]:
			switch j.kind {
			case jobAllreduce:
				j.once.Do(func() {
					j.deliver(nil, nil, &RequestError{Code: CodeRankFailed,
						Msg: fmt.Sprintf("backend rank %d died before allreduce ran", rank)})
				})
			case jobReduceFT:
				// Survivors deliver via ftDone.
			case jobIsend, jobIrecv:
				j.dropPayload()
				j.sess.opDone(j.opID, comm.Status{Source: comm.AnySource, Err: &RequestError{
					Code: CodeRankFailed,
					Msg:  fmt.Sprintf("backend rank %d died", rank),
				}})
			}
		default:
			return
		}
	}
}

// bindProxy claims rank r for sess; one live proxy session per rank.
func (b *backend) bindProxy(r int, sess *session) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.dead[r] {
		return &RequestError{Code: CodeRankFailed, Msg: fmt.Sprintf("rank %d is dead", r)}
	}
	if b.proxySess[r] != nil {
		return &RequestError{Code: CodeBadRequest, Msg: fmt.Sprintf("rank %d already bound to session %d", r, b.proxySess[r].id)}
	}
	b.proxySess[r] = sess
	return nil
}

func (b *backend) unbindProxy(r int, sess *session) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if r >= 0 && r < b.n && b.proxySess[r] == sess {
		b.proxySess[r] = nil
	}
}

// submitService fans a service job out to every rank executor after
// taking an admission token; a full pool is a typed Overloaded error.
// The token releases at delivery, so queue depth bounds live work.
//
// Seq assignment and the whole per-rank fan-out happen atomically under
// b.mu. Blocking FT execution depends on every rank's channel carrying
// service jobs in one global order — each rank must reach the same
// barrier before the same blocking collective, and two concurrent
// submitters interleaving their fan-out loops would leave ranks blocked
// in different collectives with disjoint tags, deadlocked. The same
// lock keeps the dead[] check coherent with noteDead, whose queue sweep
// only runs after dead[r] is set under b.mu.
func (b *backend) submitService(j *job) error {
	select {
	case b.admit <- struct{}{}:
	default:
		perf.RecordServeOverload()
		return ErrOverloaded
	}
	mTokensInUse.Inc()
	inner := j.deliver
	j.deliver = func(out []byte, mask []bool, err error) {
		<-b.admit
		mTokensInUse.Dec()
		inner(out, mask, err)
	}
	b.mu.Lock()
	// A channel send must not block while b.mu is held (the failure
	// detector's death hook takes the lock in noteDead), so check every
	// live rank has a free slot up front. Executors only drain, and b.mu
	// serializes all service enqueues, so the check cannot go stale
	// before the sends below. Early-delivered FT failures release their
	// token while copies are still queued, which is how occupancy can
	// outrun the token pool into the slack.
	alive := 0
	for r := range b.jobCh {
		if b.dead[r] {
			continue
		}
		alive++
		if len(b.jobCh[r]) == cap(b.jobCh[r]) {
			b.mu.Unlock()
			<-b.admit
			mTokensInUse.Dec()
			perf.RecordServeOverload()
			return ErrOverloaded
		}
	}
	if alive == 0 {
		b.mu.Unlock()
		<-b.admit
		mTokensInUse.Dec()
		return &RequestError{Code: CodeRankFailed, Msg: "all backend ranks dead"}
	}
	b.seqNext++
	j.seq = b.seqNext
	j.remaining.Store(int32(alive))
	// Dead ranks' executors are gone; their channels drain nothing, so a
	// fan-out there would eventually wedge the whole backend.
	for r := range b.jobCh {
		if !b.dead[r] {
			b.jobCh[r] <- j
		}
	}
	b.mu.Unlock()
	for _, sched := range b.scheds {
		sched.Poke()
	}
	return nil
}

// submitProxy queues a point-to-point op on the bound rank's executor.
// The channel preserves issue order (MPI non-overtaking).
func (b *backend) submitProxy(rank int, j *job) error {
	b.mu.Lock()
	deadRank := b.dead[rank]
	b.mu.Unlock()
	if deadRank {
		return &RequestError{Code: CodeRankFailed, Msg: fmt.Sprintf("rank %d is dead", rank)}
	}
	select {
	case b.jobCh[rank] <- j:
	case <-b.stopCh:
		return ErrShutdown
	}
	b.scheds[rank].Poke()
	return nil
}

// submitFT fans one survivor-set FT reduction out as a service job.
// Each rank gets a private copy of its slice of raw: an FT job settles
// as soon as one rank reaches a decisive outcome, while others may
// still be folding, so the caller's frame cannot back the contributions.
func (b *backend) submitFT(raw []byte, elems int, deliver func(out []byte, mask []bool, err error)) {
	sz := elems * 8
	in := make([][]byte, b.n)
	for r := range in {
		in[r] = append([]byte(nil), raw[r*sz:(r+1)*sz]...)
	}
	j := &job{kind: jobReduceFT, in: in, deliver: deliver}
	if err := b.submitService(j); err != nil {
		deliver(nil, nil, err)
	}
}

// executor is rank r's long-lived owner goroutine. A fail-stop crash
// exits it via Goexit; the deferred rankExited keeps membership honest.
func (b *backend) executor(r int) {
	defer b.wg.Done()
	defer b.rankExited(r)
	c := b.w.rankComm(r)
	if b.armed {
		b.runBlocking(r, c)
		return
	}
	b.runScheduled(r, c)
}

// rankExited distinguishes an orderly stop from a rank dying mid-work.
func (b *backend) rankExited(r int) {
	if b.stopped() {
		return
	}
	b.noteDead(r)
}

// take dequeues the next job, draining queued work before honoring a
// stop signal so drain-before-close retires everything already admitted.
func (b *backend) take(r int) (*job, bool) {
	select {
	case j := <-b.jobCh[r]:
		return j, true
	default:
	}
	select {
	case j := <-b.jobCh[r]:
		return j, true
	case <-b.stopCh:
		return nil, false
	}
}

// runBlocking serializes FT collectives — the crash-armed path, where a
// rank may fail-stop mid-collective and the survivor set heals its tree.
func (b *backend) runBlocking(r int, c comm.Comm) {
	for {
		j, ok := b.take(r)
		if !ok {
			return
		}
		switch j.kind {
		case jobReduceFT:
			res := core.ReduceFT(c, b.tree, comm.Bytes(j.in[r]), j.opts())
			j.ftDone(r, res)
		default:
			j.once.Do(func() {
				j.deliver(nil, nil, &RequestError{Code: CodeBadRequest,
					Msg: "crash-armed group serves FT requests only"})
			})
		}
	}
}

// flight is one in-progress operation on a scheduled executor.
type flight struct {
	j   *job
	op  *core.Op     // service collectives
	req comm.Request // proxy point-to-point ops
}

func (f flight) done() bool {
	if f.op != nil {
		return f.op.Done()
	}
	_, ok := f.req.Test()
	return ok
}

// runScheduled drives many concurrent jobs per rank under the fair
// scheduler: admit up to MaxConcurrent collectives, drive until one
// completes or new work arrives (Poke), harvest, compact, repeat.
func (b *backend) runScheduled(r int, c comm.Comm) {
	sched := b.scheds[r]
	maxConc := b.srv.cfg.MaxConcurrent
	if b.key.proxy {
		// A collective's own state machine bounds proxy ops; an external
		// cap could park half its posts and deadlock it.
		maxConc = 1 << 30
	}
	var live []flight
	for {
		// Fill without blocking while below the concurrency bound.
		for len(live) < maxConc {
			var j *job
			select {
			case j = <-b.jobCh[r]:
			default:
			}
			if j == nil {
				break
			}
			live = b.startJob(sched, c, r, j, live)
		}
		if len(live) == 0 {
			if b.stopped() {
				return
			}
			j, ok := b.take(r)
			if !ok {
				return
			}
			live = b.startJob(sched, c, r, j, live)
			continue
		}
		sched.DriveUntil(func() bool {
			if b.stopped() {
				return true
			}
			for _, f := range live {
				if f.done() {
					return true
				}
			}
			return len(b.jobCh[r]) > 0 && len(live) < maxConc
		})
		kept := live[:0]
		for _, f := range live {
			if f.done() {
				b.retire(r, f)
			} else {
				kept = append(kept, f)
			}
		}
		live = kept
		sched.Compact()
		if b.stopped() && len(live) > 0 {
			// Stop with undeliverable work (a peer executor died during
			// forced shutdown): abandon rather than spin.
			return
		}
	}
}

// startJob launches j on rank r. Blocking kinds drain the scheduled
// work first; every rank sees the same channel order, so every rank
// reaches the same barrier before the same blocking collective.
func (b *backend) startJob(sched *progress.Scheduler, c comm.Comm, r int, j *job, live []flight) []flight {
	switch j.kind {
	case jobAllreduce:
		op := core.StartAllreduce(c, b.tree, comm.Bytes(j.in[r]), j.opts())
		sched.Add(&progress.Scheduled{C: c, Op: op})
		return append(live, flight{j: j, op: op})
	case jobReduceFT:
		for len(live) > 0 {
			sched.DriveUntil(func() bool {
				for _, f := range live {
					if f.done() {
						return true
					}
				}
				return b.stopped()
			})
			kept := live[:0]
			for _, f := range live {
				if f.done() {
					b.retire(r, f)
				} else {
					kept = append(kept, f)
				}
			}
			live = kept
			if b.stopped() && len(live) > 0 {
				return live
			}
		}
		sched.Compact()
		res := core.ReduceFT(c, b.tree, comm.Bytes(j.in[r]), j.opts())
		j.ftDone(r, res)
		return live
	case jobIsend:
		req := c.Isend(j.peer, j.tag, j.msg)
		sched.Add(&progress.Scheduled{C: c, Op: reqOp{req}})
		return append(live, flight{j: j, req: req})
	case jobIrecv:
		req := c.Irecv(j.peer, j.tag)
		sched.Add(&progress.Scheduled{C: c, Op: reqOp{req}})
		return append(live, flight{j: j, req: req})
	default:
		j.once.Do(func() {
			j.deliver(nil, nil, &RequestError{Code: CodeInternal, Msg: "unknown job kind"})
		})
		return live
	}
}

// retire reports a completed flight back to its job or session.
func (b *backend) retire(r int, f flight) {
	if f.op != nil {
		f.j.rankDone(r, f.op.Wait())
		return
	}
	mLatProxy.ObserveSince(f.j.t0)
	st, _ := f.req.Test()
	if f.j.kind == jobIsend {
		// A send's status echoes the posted message; don't ship the
		// payload back to the client that sent it. A completed send no
		// longer references its payload; a failed one may still be
		// parked in the substrate, so its copy is left to the GC.
		st.Msg.Data = nil
		if st.Err == nil {
			f.j.dropPayload()
		}
	}
	f.j.sess.opDone(f.j.opID, st)
}

// reqOp adapts a comm.Request to the scheduler's Op interface.
type reqOp struct{ r comm.Request }

func (o reqOp) Done() bool {
	_, ok := o.r.Test()
	return ok
}
