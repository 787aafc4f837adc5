package serve

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"andorsched/internal/core"
	"andorsched/internal/core/schedcache"
	"andorsched/internal/exectime"
	"andorsched/internal/obs"
)

// ErrQueueFull reports that the admission queue was full; the handler maps
// it to 429 Too Many Requests with a Retry-After hint.
var ErrQueueFull = errors.New("serve: admission queue full")

// ErrPoolClosed reports a submission after Close.
var ErrPoolClosed = errors.New("serve: pool closed")

// Worker is one pool goroutine's reusable simulation state: an arena, a
// reseedable random source and a sampler wired to it. A job owns the
// worker for its whole duration, so the steady-state request path runs on
// the zero-allocation RunInto machinery — every run reuses the same
// buffers, and per-run seeds come from reseeding Src.
type Worker struct {
	Arena   *core.Arena
	Src     *exectime.Source
	Sampler *exectime.Sampler
	// Res is the single-run result holder (Monte-Carlo loops use the
	// arena's own).
	Res core.RunResult

	// pw is the pool worker this state belongs to: the owner of the plan
	// and section-schedule shards a routed job may consult. Nil for
	// Workers constructed outside a pool (tests).
	pw *poolWorker
}

type job struct {
	ctx context.Context
	fn  func(ctx context.Context, w *Worker)
	// done receives one value once the worker is finished with the job.
	// It is buffered and never closed, so that receive also resets it and
	// the job can be reused (jobPool).
	done chan struct{}
	ran  bool // set by the worker before signalling done
	// recovered holds what fn panicked with, recovered by the worker and
	// returned by submit to the waiting handler.
	recovered *jobPanic

	// units is the job's work size in Monte-Carlo runs (1 for unit work
	// like plan compiles and single executions). It weights the service
	// EWMAs and the queued-work gauge behind RetryAfter: since one request
	// may fan out into many chunk jobs, per-job accounting would misprice
	// the queue by the fan-out factor.
	units int64

	// enq is the submission time; it feeds the queue-age gauge and — when
	// rec is non-nil (traced request) — the queue-wait span, recorded by
	// the worker or by the submitter if it gives up while blocked. The
	// submitter always waits on done before touching rec again, so
	// worker-side recording needs no extra synchronization.
	rec *obs.TraceRec
	enq time.Time
	// pickup is stamped by the worker just before running fn. The exec
	// span is recorded by the submitter after done is signalled, so it covers
	// the whole pool round trip the request experienced — execution plus
	// the handoff back to the handler's goroutine.
	pickup time.Time
}

// jobPool recycles jobs and their done channels. submit takes one per
// call and puts it back once done has been received, after which the
// worker no longer touches it.
var jobPool = sync.Pool{New: func() any { return &job{done: make(chan struct{}, 1)} }}

// ageRing approximates per-queue wait ages without any lock: senders
// record enqueue times into a ring indexed by a post-send sequence number,
// workers bump the dequeue sequence at pickup, and the age of the oldest
// queued job is "now minus the time at the dequeue cursor" whenever the
// enqueue sequence is ahead. The two sequences are advanced on opposite
// sides of the channel operation, so a reader can observe a slot before
// its time is stored (reported as zero) or a freshly drained queue
// (sequences equal, reported as zero) — gauge-grade accuracy, with the
// two properties the debug surface relies on held exactly: a job sitting
// in the queue eventually shows a growing age, and a drained queue shows
// zero.
type ageRing struct {
	mask  uint64
	times []atomic.Int64 // UnixNano enqueue stamps
	enq   atomic.Uint64
	deq   atomic.Uint64
}

// newAgeRing sizes the ring to at least twice the queue capacity: the
// in-flight window [deq, enq) never exceeds the channel occupancy, so
// slots cannot be overwritten while still unconsumed.
func newAgeRing(capacity int) *ageRing {
	n := 1
	for n < 2*(capacity+1) {
		n <<= 1
	}
	return &ageRing{mask: uint64(n - 1), times: make([]atomic.Int64, n)}
}

func (r *ageRing) noteEnqueue(at time.Time) {
	seq := r.enq.Add(1) - 1
	r.times[seq&r.mask].Store(at.UnixNano())
}

func (r *ageRing) noteDequeue() { r.deq.Add(1) }

func (r *ageRing) age(nowNanos int64) time.Duration {
	d, e := r.deq.Load(), r.enq.Load()
	if e <= d {
		return 0
	}
	t := r.times[d&r.mask].Load()
	if t == 0 || t > nowNanos {
		return 0
	}
	return time.Duration(nowNanos - t)
}

// planEntry is one shard slot. key and plan never change once the entry
// is published; lastHit is a plain owner-advanced tick: only the owning
// worker reads or writes it, so the recency bookkeeping needs no atomics
// at all.
type planEntry struct {
	key     cacheKey
	plan    *core.Plan
	lastHit uint64
}

// planShard is one worker's private plan cache. The entries map is
// owner-only mutable state: every insert, hit-stamp and eviction happens
// on the owning worker goroutine, serialized by that worker's job loop,
// which is what makes the warmed request path run without a single lock
// or contended atomic.
//
// Everyone else reads the published view: a fixed array of buckets, each
// an atomic pointer to an immutable slice of entries. The owner publishes
// per bucket, copy-on-write: an insert or eviction replaces only the
// bucket of the key it touches, so a miss costs one small slice copy
// however large the shard is. Request plan resolution and stats read the
// view without any lock; a bucket is always some complete recent version,
// never torn. View reads do not refresh LRU recency — only owner-routed
// traffic does.
type planShard struct {
	cap     int
	tick    uint64
	entries map[cacheKey]*planEntry
	mask    uint64
	buckets []atomic.Pointer[[]*planEntry]
	size    atomic.Int64 // len(entries) as of the last publish; owner-written
}

// newPlanShard sizes the view to the power of two at or above a quarter
// of the capacity, so a full shard averages at most four entries per
// bucket.
func newPlanShard(capacity int) *planShard {
	if capacity < 1 {
		capacity = 1
	}
	n := 1
	for 4*n < capacity {
		n <<= 1
	}
	return &planShard{
		cap:     capacity,
		entries: make(map[cacheKey]*planEntry, capacity),
		mask:    uint64(n - 1),
		buckets: make([]atomic.Pointer[[]*planEntry], n),
	}
}

// bucket returns key's bucket. It is picked by graph digest bits 64–127:
// homeFor starts from bits 0–63, so the keys one shard owns still spread
// over all of its buckets.
func (sh *planShard) bucket(key *cacheKey) *atomic.Pointer[[]*planEntry] {
	return &sh.buckets[binary.LittleEndian.Uint64(key.graph[8:16])&sh.mask]
}

// lookup scans key's bucket in the published view. Safe from any
// goroutine.
func (sh *planShard) lookup(key *cacheKey) (*core.Plan, bool) {
	if b := sh.bucket(key).Load(); b != nil {
		for _, e := range *b {
			if e.key == *key {
				return e.plan, true
			}
		}
	}
	return nil, false
}

// publishAdd republishes e's bucket with e appended. Owner-only.
func (sh *planShard) publishAdd(e *planEntry) {
	slot := sh.bucket(&e.key)
	var old []*planEntry
	if b := slot.Load(); b != nil {
		old = *b
	}
	next := make([]*planEntry, len(old)+1)
	copy(next, old)
	next[len(old)] = e
	slot.Store(&next)
}

// publishRemove republishes e's bucket without e. Owner-only.
func (sh *planShard) publishRemove(e *planEntry) {
	slot := sh.bucket(&e.key)
	old := *slot.Load()
	if len(old) == 1 {
		slot.Store(nil)
		return
	}
	next := make([]*planEntry, 0, len(old)-1)
	for _, o := range old {
		if o != e {
			next = append(next, o)
		}
	}
	slot.Store(&next)
}

// poolWorker is one worker goroutine's identity: its private queue, its
// plan and section-schedule shards, and its stat counters. The counters
// are written only by the owner — a peek hit is credited by the worker
// executing the request — and merged into the registry's instruments only
// on the metrics/debug read paths.
type poolWorker struct {
	id    int
	jobs  chan *job
	ring  *ageRing
	quit  chan struct{}
	plans *planShard
	sched *schedcache.Cache

	hits, misses, evictions atomic.Int64
	// svcUnitNanos is an EWMA of this worker's observed service time per
	// work unit (α = 1/8), and jobUnits an EWMA of units per job. Keeping
	// the rate per unit — rather than per job — makes the Retry-After
	// estimate independent of how requests are chunked: a request split
	// into W chunk jobs contributes the same queued work and the same
	// drain rate as its serial form, where a per-job EWMA would overprice
	// the queue by ~W×. Single-writer: plain load/store, no CAS loop.
	svcUnitNanos atomic.Int64
	jobUnits     atomic.Int64
}

// Pool is a fixed-size worker pool with a shared bounded admission queue
// plus one private queue per worker. submit enqueues one job either on
// the shared queue (anyWorker: whichever worker is free picks it up) or
// on one worker's private queue — the shard owner chosen by digest — so
// all mutation of that worker's caches stays on its goroutine; fanOut
// spreads one request's chunk jobs over the shared queue. A fail-fast
// submit returns ErrQueueFull when the queue is full (backpressure); a
// waiting one blocks for space. Submission and shutdown synchronize
// through two atomics (a Dekker-style closed/in-flight handshake), not a
// lock.
type Pool struct {
	shared     chan *job
	sharedRing *ageRing
	workers    []*poolWorker
	wg         sync.WaitGroup
	closed     atomic.Bool
	closeDone  chan struct{}
	inFlight   atomic.Int64
	// unitsQueued tracks the work (in units) sitting in the queues but not
	// yet picked up — the numerator of the RetryAfter drain estimate.
	// Incremented after a successful enqueue, decremented at pickup.
	unitsQueued atomic.Int64

	// grave accumulates the per-worker cache counters folded in at Close,
	// after the workers exited: a drained pool keeps reporting the totals
	// it earned, and the merge never undercounts across a shutdown.
	grave struct {
		hits, misses, evictions atomic.Int64
	}
}

// NewPool starts `workers` goroutines with a shared queue of the given
// capacity and a per-worker plan-shard capacity totalling planCap across
// the pool. workers, queue and planCap are floored at 1.
func NewPool(workers, queue, planCap int) *Pool {
	if workers < 1 {
		workers = 1
	}
	if queue < 1 {
		queue = 1
	}
	if planCap < 1 {
		planCap = 1
	}
	shardCap := (planCap + workers - 1) / workers
	schedCap := core.DefaultScheduleCacheCapacity / workers
	if schedCap < 64 {
		schedCap = 64
	}
	// Private queues are small: routed jobs are picked up by a dedicated
	// owner, so depth beyond a handful only adds latency; backpressure is
	// the shared queue's job.
	wq := queue / workers
	if wq < 1 {
		wq = 1
	}
	p := &Pool{
		shared:     make(chan *job, queue),
		sharedRing: newAgeRing(queue),
		closeDone:  make(chan struct{}),
		workers:    make([]*poolWorker, workers),
	}
	for i := 0; i < workers; i++ {
		w := &poolWorker{
			id:    i,
			jobs:  make(chan *job, wq),
			ring:  newAgeRing(wq),
			quit:  make(chan struct{}),
			plans: newPlanShard(shardCap),
			sched: schedcache.New(schedCap),
		}
		p.workers[i] = w
		p.wg.Add(1)
		go p.worker(w)
	}
	return p
}

// jobPanic is the error submit returns for a job whose function
// panicked. The handler that waited for the job re-raises it (checkPoolErr,
// routePlan), so the middleware answers 500 and counts the panic, and the
// worker goroutine survives.
type jobPanic struct{ val any }

func (e *jobPanic) Error() string { return fmt.Sprintf("serve: pool job panicked: %v", e.val) }

func (p *Pool) worker(w *poolWorker) {
	defer p.wg.Done()
	src := exectime.NewSource(uint64(w.id))
	wk := &Worker{
		Arena:   core.NewArena(),
		Src:     src,
		Sampler: exectime.NewSampler(src),
		pw:      w,
	}
	for {
		select {
		case j := <-w.jobs:
			p.run(w, wk, j, w.ring)
		case j := <-p.shared:
			p.run(w, wk, j, p.sharedRing)
		case <-w.quit:
			// Close only closes quit after the in-flight count drained to
			// zero, so both queues are empty and will stay empty.
			return
		}
	}
}

func (p *Pool) run(w *poolWorker, wk *Worker, j *job, ring *ageRing) {
	ring.noteDequeue()
	p.unitsQueued.Add(-j.units)
	j.pickup = time.Now()
	// The queue-wait span is recorded even for jobs skipped below: a
	// cancelled-while-queued request still spent that time waiting, and
	// its handler is blocked on done, so the record is safe to touch.
	// Reusing the pickup stamp for the span's end costs no extra clock
	// read.
	j.rec.RecordSpan(PhaseQueue, j.enq, j.pickup)
	// A job whose request already gave up (context expired while queued)
	// is skipped: its handler is gone, running it would only burn the
	// worker.
	if j.ctx.Err() == nil {
		j.exec(wk)
		j.ran = true
		w.observeService(time.Since(j.pickup), j.units)
	}
	j.done <- struct{}{}
	p.inFlight.Add(-1)
}

// exec runs the job's function on wk, recovering a panic into j.recovered. The
// panic may have left the arena or sampler half-written, so the worker
// continues on fresh ones.
func (j *job) exec(wk *Worker) {
	defer func() {
		if v := recover(); v != nil {
			j.recovered = &jobPanic{val: v}
			wk.Arena, wk.Sampler, wk.Res = core.NewArena(), exectime.NewSampler(wk.Src), core.RunResult{}
		}
	}()
	j.fn(j.ctx, wk)
}

// observeService folds one job's duration into the worker's per-unit
// service-time and units-per-job EWMAs (α = 1/8: stable under bursty
// mixes, adapts within a few dozen jobs). Owner-only, so plain
// read-modify-writes suffice.
func (w *poolWorker) observeService(d time.Duration, units int64) {
	if units < 1 {
		units = 1
	}
	n := d.Nanoseconds() / units
	if n < 1 {
		n = 1
	}
	if old := w.svcUnitNanos.Load(); old != 0 {
		n = old + (n-old)/8
	}
	w.svcUnitNanos.Store(n)
	u := units
	if old := w.jobUnits.Load(); old != 0 {
		u = old + (u-old)/8
	}
	w.jobUnits.Store(u)
}

// QueueDepth reports the number of jobs currently sitting in the shared
// queue and every private queue.
func (p *Pool) QueueDepth() int {
	depth := len(p.shared)
	for _, w := range p.workers {
		depth += len(w.jobs)
	}
	return depth
}

// OldestQueueAge reports how long the oldest currently queued job has been
// waiting (zero for empty queues) — the queue-staleness companion to the
// depth gauge: a deep-but-moving queue is load, a shallow-but-old one is a
// stall. The age is the maximum over the shared and per-worker queues.
func (p *Pool) OldestQueueAge() time.Duration {
	now := time.Now().UnixNano()
	oldest := p.sharedRing.age(now)
	for _, w := range p.workers {
		if a := w.ring.age(now); a > oldest {
			oldest = a
		}
	}
	return oldest
}

// RetryAfter estimates how long a rejected client should wait for queue
// space to appear: the queued work — measured in run units, not jobs — at
// the pool's observed per-unit drain rate, plus one mean-sized job for the
// caller's own work, clamped to [1s, 60s]. Counting units matters once
// requests fan out into per-worker chunks: W queued chunk jobs of one
// request hold the same work as its serial form, and a per-job estimate
// learned from pre-chunking traffic would overprice them by ~W×. Before
// any job has completed — or with empty queues, where the rejection came
// from a race — there is no schedule to derive, and the estimate falls
// back to 1s.
func (p *Pool) RetryAfter() time.Duration {
	var svcUnit, meanUnits, n int64
	for _, w := range p.workers {
		if s := w.svcUnitNanos.Load(); s > 0 {
			svcUnit += s
			meanUnits += w.jobUnits.Load()
			n++
		}
	}
	queued := p.unitsQueued.Load()
	if n == 0 || (queued <= 0 && p.QueueDepth() == 0) {
		return time.Second
	}
	svcUnit /= n
	meanUnits /= n
	if meanUnits < 1 {
		meanUnits = 1
	}
	if queued < 0 {
		queued = 0 // transient decrement-before-increment races read as empty
	}
	workers := int64(len(p.workers))
	// queued+meanUnits units (the queue plus the caller's own, assumed
	// mean-sized) drain at workers-per-unit-svc; round up to whole work,
	// clamp to the header-friendly band.
	wait := time.Duration(((queued+meanUnits)*svcUnit + workers - 1) / workers)
	if wait < time.Second {
		wait = time.Second
	}
	if wait > 60*time.Second {
		wait = 60 * time.Second
	}
	return wait
}

// anyWorker is submit's home for the shared queue.
const anyWorker = -1

// submit enqueues fn as one job and blocks until it completes. home picks
// the queue: anyWorker for the shared one, or a worker index for that
// worker's private queue (fn then runs on exactly that worker, which is
// what entitles it to touch the worker's plan and section-schedule shards
// without synchronization). With wait false a full queue fails fast with
// ErrQueueFull; with wait true submit blocks for space until ctx expires —
// for work downstream of an admission decision of its own. units sizes
// the job in Monte-Carlo runs for the Retry-After accounting (floored at
// 1). onEnqueue, when non-nil, runs exactly once right after the job lands
// in the queue — before submit blocks on completion — so a coordinator
// (fanOut) can learn that the fail-fast admission decision succeeded
// without waiting for the job to finish. It runs on the submitting
// goroutine and must not block.
//
// fn runs with exclusive use of the worker's state and must respect ctx
// between units of work. submit returns ErrPoolClosed after Close, and
// ctx's error when the job was skipped because the context expired before
// a worker picked it up, and a *jobPanic when fn panicked; nil means fn
// ran to completion.
func (p *Pool) submit(ctx context.Context, home int, wait bool, units int64, fn func(ctx context.Context, w *Worker), onEnqueue func()) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	ch, ring := p.shared, p.sharedRing
	if home != anyWorker {
		ch, ring = p.workers[home].jobs, p.workers[home].ring
	}
	if units < 1 {
		units = 1
	}
	j := jobPool.Get().(*job)
	*j = job{ctx: ctx, fn: fn, done: j.done, enq: time.Now(), units: units, rec: obs.TraceFromContext(ctx)}
	defer func() {
		*j = job{done: j.done}
		jobPool.Put(j)
	}()
	// Dekker handshake with Close: count the submission first, then check
	// the closed flag (both sequentially consistent). Close stores the
	// flag first, then reads the count — so either this submitter sees
	// closed and backs out, or Close sees the in-flight count and waits
	// for the job. No lock, and a submit racing a Close still gets a clean
	// ErrPoolClosed instead of a job no worker will drain.
	p.inFlight.Add(1)
	if p.closed.Load() {
		p.inFlight.Add(-1)
		return ErrPoolClosed
	}
	if wait {
		select {
		case ch <- j:
		case <-ctx.Done():
			p.inFlight.Add(-1)
			// The request waited for queue space it never got; that wait is
			// still queue time.
			j.rec.Record(PhaseQueue, j.enq)
			return ctx.Err()
		}
	} else {
		select {
		case ch <- j:
		default:
			p.inFlight.Add(-1)
			return ErrQueueFull
		}
	}
	ring.noteEnqueue(j.enq)
	p.unitsQueued.Add(units)
	if onEnqueue != nil {
		onEnqueue()
	}
	<-j.done
	if j.recovered != nil {
		return j.recovered
	}
	if !j.ran {
		if err := ctx.Err(); err != nil {
			return err
		}
		return ErrPoolClosed
	}
	// The exec span closes here, on the submitter's side of the handoff:
	// signalling done ordered j.pickup, and stamping the end after the wakeup
	// charges the worker→handler scheduling latency to exec rather than
	// leaving it an unattributed gap in the trace.
	j.rec.Record(PhaseExec, j.pickup)
	return nil
}

// fanOut executes one request of `runs` runs, each worth perRun work
// units, as n ≥ 1 chunk jobs on the shared queue and blocks until every
// started job has returned. Chunk c covers the runs [lo, hi) of
// chunkBounds(runs, n, c), and job(c, lo, hi) builds its function; a
// chunk function's error fails the request. Execution with one chunk is
// the serial form.
//
// Admission: chunk 0 is submitted fail-fast — the request's single
// admission decision on the shared queue, so a saturated pool answers a
// clean 429 — and the remaining chunks enter with blocking submission
// only after chunk 0 is known to be enqueued, the way an admitted batch's
// items ride out transient queue pressure. (Without that ordering a
// sibling chunk could fill the queue first and fail its own request's
// admission probe.)
//
// Error handling is all-or-nothing: the first failure cancels the shared
// child context, every started chunk backs out at its next run boundary,
// and the returned error reports the failure — never a partial result. A
// nil return means every chunk ran to completion.
func (p *Pool) fanOut(ctx context.Context, runs, n int, perRun int64,
	job func(c, lo, hi int) func(context.Context, *Worker) error) error {
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, n)
	chunk := func(c int, onEnqueue func()) {
		lo, hi := chunkBounds(runs, n, c)
		fn := job(c, lo, hi)
		var runErr error
		err := p.submit(cctx, anyWorker, c > 0, int64(hi-lo)*perRun, func(ctx context.Context, wk *Worker) {
			runErr = fn(ctx, wk)
		}, onEnqueue)
		if errs[c] = err; err == nil {
			errs[c] = runErr
		}
		if errs[c] != nil {
			cancel()
		}
	}
	if n == 1 {
		chunk(0, nil)
		return errs[0]
	}
	var wg sync.WaitGroup
	// enq resolves chunk 0's admission: nil once it is enqueued, or the
	// fail-fast error if it never was.
	enq := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		enqueued := false
		chunk(0, func() {
			enqueued = true
			enq <- nil
		})
		if !enqueued {
			enq <- errs[0]
		}
	}()
	if err := <-enq; err != nil {
		wg.Wait()
		return err
	}
	for c := 1; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			chunk(c, nil)
		}(c)
	}
	wg.Wait()
	// Prefer the root cause over the context.Canceled errors the cancel
	// fanned out to sibling chunks; a panic outranks every other failure,
	// so the handler re-raises it.
	var first error
	for _, err := range errs {
		if _, panicked := err.(*jobPanic); panicked {
			return err
		}
		if err != nil && (first == nil || errors.Is(first, context.Canceled)) {
			first = err
		}
	}
	return first
}

// InFlight returns the number of jobs queued or running.
func (p *Pool) InFlight() int { return int(p.inFlight.Load()) }

// Workers returns the pool size.
func (p *Pool) Workers() int { return len(p.workers) }

// homeFor picks the worker owning key's plan-shard slot: a digest of the
// whole cache key, so identical requests land on one worker (whose warm
// shard then serves them lock-free) and distinct applications spread
// across the pool.
func (p *Pool) homeFor(key cacheKey) int {
	if len(p.workers) == 1 {
		return 0
	}
	h := binary.LittleEndian.Uint64(key.graph[:8])
	mix := func(v uint64) {
		h = (h ^ v) * 0x9e3779b97f4a7c15
		h ^= h >> 32
	}
	mixStr := func(s string) {
		for i := 0; i < len(s); i++ {
			h = (h ^ uint64(s[i])) * 0x100000001b3
		}
	}
	mix(uint64(key.procs))
	mixStr(key.platform)
	mixStr(key.hetero)
	mixStr(key.placement)
	mix(math.Float64bits(key.ov.SpeedCompCycles))
	mix(math.Float64bits(key.ov.SpeedChangeTime))
	mix(math.Float64bits(key.ov.VoltSlewTime))
	return int(h % uint64(len(p.workers)))
}

// planPeek looks key up in the owning shard's published view — a
// lock-free read of one bucket, usable from any goroutine. It counts
// nothing and does not refresh the entry's LRU recency (only
// owner-routed traffic does): the request's executing worker credits the
// hit to its own counter, so the warm path never writes a cache line
// another goroutine writes.
func (p *Pool) planPeek(key cacheKey) (*core.Plan, bool) {
	return p.workers[p.homeFor(key)].plans.lookup(&key)
}

// OwnerPlan resolves key in the worker's own plan shard, compiling on a
// miss. It must be called from a job routed to the shard's owner (submit
// with home homeFor(key)): entries, recency ticks and the published view
// are all mutated without synchronization on the owner's goroutine.
// The boolean reports a hit; a second routed request for a key whose
// compile just finished counts as a hit (the owner queue serializes
// compiles, so duplicate-compile suppression is structural). Failed
// compiles are not cached.
func (wk *Worker) OwnerPlan(key cacheKey, compile func(sched *schedcache.Cache) (*core.Plan, error)) (*core.Plan, bool, error) {
	w := wk.pw
	sh := w.plans
	sh.tick++
	if e, ok := sh.entries[key]; ok {
		e.lastHit = sh.tick
		w.hits.Add(1)
		return e.plan, true, nil
	}
	w.misses.Add(1)
	plan, err := compile(w.sched)
	if err != nil {
		return nil, false, err
	}
	added := &planEntry{key: key, plan: plan, lastHit: sh.tick}
	sh.entries[key] = added
	sh.publishAdd(added)
	for len(sh.entries) > sh.cap {
		var victim *planEntry
		for _, e := range sh.entries {
			if victim == nil || e.lastHit < victim.lastHit {
				victim = e
			}
		}
		delete(sh.entries, victim.key)
		sh.publishRemove(victim)
		w.evictions.Add(1)
	}
	sh.size.Store(int64(len(sh.entries)))
	return plan, false, nil
}

// PlanCacheStats is the merged view of the per-worker plan-shard counters
// plus the close-time graveyard. Size counts the plans in the live shards'
// published views.
type PlanCacheStats struct {
	Hits, Misses, Evictions, Size int64
}

// PlanCacheStats merges the graveyard with every live worker's counters.
// Reading is lock-free; the counters only move forward, so consecutive
// merges are monotonic except for a harmless transient during the Close
// fold (which the delta logic in refreshStats clamps).
func (p *Pool) PlanCacheStats() PlanCacheStats {
	s := PlanCacheStats{
		Hits:      p.grave.hits.Load(),
		Misses:    p.grave.misses.Load(),
		Evictions: p.grave.evictions.Load(),
	}
	for _, w := range p.workers {
		s.Hits += w.hits.Load()
		s.Misses += w.misses.Load()
		s.Evictions += w.evictions.Load()
		s.Size += w.plans.size.Load()
	}
	return s
}

// SchedCacheStats sums the per-worker section-schedule shard counters.
func (p *Pool) SchedCacheStats() schedcache.Stats {
	var sum schedcache.Stats
	for _, w := range p.workers {
		st := w.sched.Stats()
		sum.Hits += st.Hits
		sum.Misses += st.Misses
		sum.Evictions += st.Evictions
		sum.Size += st.Size
		sum.Capacity += st.Capacity
	}
	return sum
}

// CachedPlans counts plans across all live shards' published views.
func (p *Pool) CachedPlans() int {
	n := int64(0)
	for _, w := range p.workers {
		n += w.plans.size.Load()
	}
	return int(n)
}

// Close stops accepting jobs, lets queued and running jobs finish, waits
// for the workers to exit, then folds the per-worker cache counters into
// the graveyard so post-shutdown stat reads still add up. The handshake
// mirrors submit's: once the closed flag is set, the in-flight count can
// only fall; when it reaches zero every queue is empty and no submitter
// can add to one, so the quit channels close with nothing stranded.
func (p *Pool) Close() {
	if p.closed.CompareAndSwap(false, true) {
		for p.inFlight.Load() != 0 {
			time.Sleep(50 * time.Microsecond)
		}
		for _, w := range p.workers {
			close(w.quit)
		}
		p.wg.Wait()
		for _, w := range p.workers {
			p.grave.hits.Add(w.hits.Swap(0))
			p.grave.misses.Add(w.misses.Swap(0))
			p.grave.evictions.Add(w.evictions.Swap(0))
		}
		close(p.closeDone)
	}
	<-p.closeDone
}
