// Package sched implements the dataflow task runtime at the core of the
// library — the Go analogue of PLASMA's QUARK scheduler.
//
// Algorithms submit Tasks that declare which data they read and write
// through opaque comparable Handles (in practice: matrix tiles). The runtime
// derives read-after-write, write-after-read and write-after-write
// dependences automatically, in submission order, and executes tasks on a
// worker pool as soon as their dependences are satisfied. This is the
// "dynamic DAG scheduling" the extreme-scale argument advocates over
// fork–join: no artificial barriers, idle time limited to genuine critical
// path constraints.
//
// Two Scheduler implementations are provided:
//
//   - Runtime executes tasks on a pool of goroutines, honouring priorities.
//   - Recorder captures the task graph (executing tasks inline, sequentially,
//     and timing them) so the graph can be replayed under Simulate with any
//     number of virtual workers — the mechanism this repository uses to
//     reproduce scaling behaviour on small hosts.
//
// A fork–join baseline needs no separate implementation: algorithms express
// barriers by calling WaitErr (or Wait) between phases, which Runtime
// executes as a real join and Recorder records as an all-to-all
// dependence.
//
// Task attempts are reported in one record, trace.Event: a Runtime with a
// SpanTracer (WithTracer) emits one per attempt and per skipped task, and
// Simulate returns a simulated schedule as the same records. sched
// simulates and package trace measures: work, span, makespan and speedup
// of a real or simulated schedule all come from trace.Log.AnalyzeDAG.
//
// The dependence rule itself lives in one place (deps.go) and is shared by
// the Runtime, the Recorder and the Frontier (the pull-based tracker the
// distributed coordinator schedules from), so the three derive the same
// edges for the same submissions. A task's dependences come out in the
// rule's discovery order — its read handles' last writers, then its
// written handles' last writers and readers — deduplicated, with a
// recorded barrier last: deterministic for a given submission sequence.
//
// Dispatch is built for fine-grained tile DAGs, where per-task overhead
// competes directly with kernel time: the ready set is sharded into
// per-worker priority heaps with work stealing (dependence tracking keeps
// the runtime lock, ready-queue traffic does not), nodes are allocated from
// a slab, wakeups signal one idle worker per enqueue instead of
// broadcasting to the pool, and the steady-state dispatch path — pop, run,
// resolve successors — performs no heap allocation.
//
// The runtime is fault-aware ("at extreme scale, faults are the norm"):
// tasks may return errors (Task.FnErr) or panic without taking down the
// pool, transient failures are retried with capped exponential backoff
// (WithRetry), permanently failed tasks poison — skip — their dependents,
// whether submitted before or after the failure within one WaitErr epoch,
// while the rest of the DAG drains, and WaitErr aggregates the root
// failures with kernel and handle context. Each failed attempt is reported
// as its trace.Event to the failure observer (WithFailureObserver). A
// seeded chaos layer (WithChaos) kills or delays task attempts to
// exercise all of this deterministically; see fault.go.
package sched

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"exadla/internal/metrics"
	"exadla/internal/trace"
)

// Handle identifies a datum (typically one matrix tile) for dependence
// tracking. Any comparable value works; equal values alias the same datum.
type Handle any

// Task is one unit of work with declared data accesses.
type Task struct {
	// Name labels the kernel for traces ("potrf", "gemm", ...).
	Name string
	// Reads lists data the task reads. A handle appearing in both Reads
	// and Writes is treated as read-modify-write.
	Reads []Handle
	// Writes lists data the task writes.
	Writes []Handle
	// Priority orders ready tasks: higher runs first. Use it to favour the
	// critical path (e.g. panel factorizations over trailing updates).
	Priority int
	// Fn performs the work. It must touch only the declared data.
	Fn func()
	// FnErr is the error-returning body variant and takes precedence over
	// Fn when both are set. A non-nil return marks the task failed: the
	// runtime retries it if a retry policy is installed and the error is
	// transient (see Permanent), and otherwise poisons its dependents and
	// reports the failure through WaitErr. Bodies that may be retried must
	// be idempotent.
	FnErr func() error
}

// Scheduler is the submission interface shared by the real runtime and the
// recorder. Wait and WaitErr block until every task submitted so far has
// completed, and double as the phase barrier for fork–join style
// algorithms: Wait panics on a task failure, WaitErr returns the epoch's
// failures as a *FailuresError (nil if every task succeeded). Algorithms
// that submit error-returning tasks use WaitErr.
type Scheduler interface {
	Submit(t Task)
	Wait()
	WaitErr() error
}

// node is the runtime's internal task state. Graph state (succs, nDeps,
// done, failed, poisoned) is guarded by Runtime.mu; the per-attempt fields
// crossed by the dispatch path and the watchdog (enqueued, attempts,
// readyAt) are atomics so popping a task never touches the runtime lock.
// The task's body is read by the worker once per attempt and released
// under Runtime.mu when the node is done.
type node struct {
	task     Task
	succs    []*node
	nDeps    int   // remaining unmet dependences; guarded by Runtime.mu
	seq      int   // submission order, for FIFO tie-breaking
	done     bool  // completed; guarded by Runtime.mu
	failed   bool  // failed permanently; guarded by mu
	poisoned bool  // an upstream task failed or was skipped; skip the body. Guarded by mu.
	epoch    int   // the Wait epoch n was submitted in
	deps     []int // dep task seqs, recorded only under a SpanTracer; immutable after link

	enqueued atomic.Bool  // on a ready shard (or about to be)
	attempts atomic.Int32 // executions so far
	readyAt  atomic.Int64 // when the node was (last) enqueued
}

// Runtime executes tasks on a fixed pool of worker goroutines.
type Runtime struct {
	workers int

	mu       sync.Mutex
	cond     *sync.Cond
	deps     deps[*node]
	inFlight int // submitted but not yet completed
	seq      int
	shutdown bool
	epoch    int          // WaitErr calls so far: the current Wait epoch
	failures []*TaskError // permanent failures of the current Wait epoch
	skipped  int          // poisoned dependents that never ran
	nodeSlab []node       // slab allocator for nodes; guarded by mu
	finStack []*node      // finishLocked scratch, reused; guarded by mu

	// Ready set: per-worker shards plus the idle-worker parking lot.
	// readyCount is the total across shards; stopping mirrors shutdown for
	// lock-free reads in the dequeue loop.
	shards     []readyShard
	readyCount atomic.Int64
	stopping   atomic.Bool
	idleMu     sync.Mutex
	idleCond   *sync.Cond
	idlers     atomic.Int32 // modified under idleMu; read lock-free by enqueuers

	// Failure policy, immutable after New.
	retryMax     int
	retryBackoff time.Duration
	chaos        chaosState
	failObs      func(trace.Event, error)

	// Liveness layer (see liveness.go). taskDeadline is immutable after
	// New; the attempt registry has its own lock so the watchdog never
	// contends with the scheduling fast path.
	taskDeadline time.Duration
	watchMu      sync.Mutex
	running      map[*attempt]struct{}
	watchStop    chan struct{}
	watchDone    chan struct{}
	watchOnce    sync.Once

	spanTracer SpanTracer
	met        *rtMetrics
}

// Option configures a Runtime.
type Option func(*Runtime)

// WithTracer attaches a tracer to the runtime, which emits one trace.Event
// to it per task attempt and per skipped task, carrying task ID,
// dependence edges, queue wait, attempt number, and outcome; see span.go.
func WithTracer(tr SpanTracer) Option {
	return func(r *Runtime) { r.spanTracer = tr }
}

// WithMetrics directs the runtime's instrumentation (task counts, queue
// depth, worker occupancy, per-kernel latency histograms) at reg instead of
// the package-wide metrics.Default() registry. Passing nil silences the
// runtime's metrics entirely.
func WithMetrics(reg *metrics.Registry) Option {
	return func(r *Runtime) { r.met = newRTMetrics(reg, r.workers) }
}

// New creates a Runtime with the given number of worker goroutines
// (minimum 1). Call Shutdown when done.
func New(workers int, opts ...Option) *Runtime {
	if workers < 1 {
		workers = 1
	}
	r := &Runtime{
		workers: workers,
		shards:  make([]readyShard, workers),
	}
	r.cond = sync.NewCond(&r.mu)
	r.idleCond = sync.NewCond(&r.idleMu)
	for _, o := range opts {
		o(r)
	}
	if r.met == nil {
		r.met = newRTMetrics(metrics.Default(), workers)
	}
	if r.chaos.hard() && r.taskDeadline <= 0 {
		panic("sched: hard chaos (worker kills / task hangs) requires WithTaskDeadline so the watchdog can recover")
	}
	if r.chaos.soft() || r.chaos.hard() {
		r.chaos.rng = rand.New(rand.NewSource(r.chaos.Seed))
	}
	if r.taskDeadline > 0 {
		r.startWatchdog()
	}
	for w := 0; w < workers; w++ {
		go r.worker(w)
	}
	return r
}

// nodeSlabSize is the node slab block: Submit hands out nodes from a
// pre-allocated block, so fine-grained DAGs cost one allocation per block
// instead of one per task.
const nodeSlabSize = 256

// newNode allocates a node from the slab. Caller holds r.mu.
func (r *Runtime) newNode() *node {
	if len(r.nodeSlab) == 0 {
		r.nodeSlab = make([]node, nodeSlabSize)
	}
	n := &r.nodeSlab[0]
	r.nodeSlab = r.nodeSlab[1:]
	return n
}

// Submit registers a task. Dependences on previously submitted tasks are
// derived from the declared handles; the task runs as soon as they are all
// satisfied. Submit is safe for concurrent use, though dependence order
// follows the serialization of the Submit calls themselves.
func (r *Runtime) Submit(t Task) {
	r.mu.Lock()
	if r.shutdown {
		r.mu.Unlock()
		panic("sched: Submit after Shutdown")
	}
	n := r.newNode()
	n.task = t
	n.seq = r.seq
	n.epoch = r.epoch
	r.seq++
	r.inFlight++
	r.met.taskSubmitted()
	r.link(n)
	ready := n.nDeps == 0
	var skipped []*node
	if ready && n.poisoned {
		ready = false
		skipped = r.finishLocked(n, false, n.seq%r.workers)
	}
	r.mu.Unlock()
	if ready {
		// Source tasks spread round-robin across shards so a burst of
		// submissions parallelizes immediately.
		r.enqueue(n, n.seq%r.workers)
	}
	if len(skipped) > 0 {
		r.emitSkipped(skipped, traceNow())
		r.completeSkipped(len(skipped))
	}
}

// link derives n's dependences and registers its accesses. An unfinished
// predecessor gates n; a finished one that failed or was skipped in this
// Wait epoch poisons it, as it would have had n been submitted before it
// finished. Under a SpanTracer every predecessor's seq is also recorded,
// since a completed dep imposes no scheduling constraint but is still part
// of the DAG. Caller holds r.mu.
func (r *Runtime) link(n *node) {
	for _, p := range r.deps.link(n, n.task.Reads, n.task.Writes) {
		if r.spanTracer != nil {
			n.deps = append(n.deps, p.seq)
		}
		if !p.done {
			p.succs = append(p.succs, n)
			n.nDeps++
		} else if (p.failed || p.poisoned) && p.epoch == r.epoch {
			n.poisoned = true
		}
	}
}

// enqueue makes a dependence-free task runnable on shard home, waking one
// idle worker if any is parked. It takes no runtime-wide lock and is safe
// to call with or without r.mu held (shard and idle locks are leaves: no
// code path acquires r.mu while holding either).
func (r *Runtime) enqueue(n *node, home int) {
	if !n.enqueued.CompareAndSwap(false, true) {
		return
	}
	if r.spanTracer != nil || r.met.on() {
		n.readyAt.Store(traceNow()) // queue-wait epoch for the next attempt
	}
	r.shards[home].push(n)
	depth := r.readyCount.Add(1)
	r.met.readyLen(int(depth))
	// Wake exactly one parked worker per enqueued task. The readyCount
	// increment above is ordered before this load, and sleepers re-check
	// readyCount under idleMu before parking, so the wakeup cannot be lost:
	// either the sleeper sees the new count and never parks, or it is
	// already in Wait when the Signal lands.
	if r.idlers.Load() > 0 {
		r.idleMu.Lock()
		r.idleCond.Signal()
		r.idleMu.Unlock()
	}
}

// dequeue returns the next task for worker id: its own shard first (work
// its finishes made ready), then a stealing sweep over the other shards,
// then parking until an enqueue signals. Returns nil at shutdown.
func (r *Runtime) dequeue(id int) *node {
	for {
		if n := r.shards[id].pop(); n != nil {
			r.met.readyLen(int(r.readyCount.Add(-1)))
			return n
		}
		for off := 1; off < len(r.shards); off++ {
			if n := r.shards[(id+off)%len(r.shards)].pop(); n != nil {
				r.met.readyLen(int(r.readyCount.Add(-1)))
				return n
			}
		}
		if r.stopping.Load() && r.readyCount.Load() == 0 {
			return nil
		}
		r.idleMu.Lock()
		r.idlers.Add(1)
		for r.readyCount.Load() == 0 && !r.stopping.Load() {
			r.idleCond.Wait()
		}
		r.idlers.Add(-1)
		r.idleMu.Unlock()
	}
}

func (r *Runtime) worker(id int) {
	clock := newTraceClock()
	idleFrom := clock.now()
	for {
		n := r.dequeue(id)
		if n == nil {
			r.met.workerIdle(id, clock.now()-idleFrom)
			return
		}
		// The popped node is exclusively this worker's until its attempt
		// resolves; the only concurrent writer is a watchdog abandonment of
		// an *earlier* attempt re-enqueueing the node, which the atomics
		// make safe (both sides see consistent attempt counts).
		attemptNum := int(n.attempts.Add(1))
		readyAt := n.readyAt.Load()
		// Read the body before the attempt is registered: registration
		// orders this read before any watchdog handoff of the task, so
		// finishLocked may release a done task's body without racing an
		// abandoned attempt.
		fn, fnErr := n.task.Fn, n.task.FnErr

		start := clock.now()
		r.met.workerIdle(id, start-idleFrom)
		att := r.registerAttempt(n, id, attemptNum, readyAt, start)
		err, died := r.runTask(n, fn, fnErr, att, attemptNum)
		if died {
			// Hard chaos killed this worker while it held the task. The
			// attempt stays registered: the watchdog will declare the worker
			// dead, re-enqueue the task, and spawn a replacement worker.
			return
		}
		if !r.completeAttempt(att) {
			// The watchdog abandoned this attempt — the task has been handed
			// to another worker and a replacement owns this id. Discard the
			// result and exit; the span was emitted by the watchdog.
			return
		}
		end := clock.now()
		idleFrom = end
		wait := int64(-1)
		if readyAt > 0 && readyAt <= start {
			wait = start - readyAt
		}
		r.met.taskDone(n.task.Name, id, end-start, wait)

		retrying := r.report(n, id, attemptNum, readyAt, start, end, err)
		var skipped []*node
		if err == nil {
			skipped = r.finish(n, false, id)
		} else {
			skipped = r.resolveFailure(n, err, retrying, attemptNum, id)
		}
		if len(skipped) > 0 {
			r.emitSkipped(skipped, end)
			r.completeSkipped(len(skipped))
		}
	}
}

// report counts a failed attempt of n and hands its record, built once,
// to the SpanTracer and (when it failed) the failure observer. It returns
// whether a failed attempt will be retried. Callers report before the node
// completes or is re-enqueued: Wait/WaitErr/Shutdown return once inFlight
// reaches zero, so anything reported after finish or resolveFailure could
// be missed by a caller reading the tracer right after Wait.
func (r *Runtime) report(n *node, worker, attempt int, ready, start, end int64, err error) (retrying bool) {
	if err != nil {
		retrying = attempt <= r.retryMax && retryable(err)
		r.met.attemptFailed(err, retrying)
	}
	obs := err != nil && r.failObs != nil
	if r.spanTracer == nil && !obs {
		return retrying
	}
	e := n.span(worker, attempt, ready, start, end, outcomeOf(err, retrying), err)
	if r.spanTracer != nil {
		r.spanTracer.TaskSpan(e)
	}
	if obs {
		r.failObs(e, err)
	}
	return retrying
}

// emitSkipped reports poisoned dependents that will never run as
// zero-length spans, so DAG analyses see the complete graph.
func (r *Runtime) emitSkipped(skipped []*node, ts int64) {
	for _, s := range skipped {
		r.spanTracer.TaskSpan(s.span(-1, 0, 0, ts, ts, trace.OutcomeSkipped, nil))
	}
}

// finish completes n outside the worker's fast path, returning the
// poisoned dependents drained with it (non-empty only under a SpanTracer).
// home is the shard newly-ready successors are enqueued on — the finishing
// worker's own shard, so dependent work stays local until stolen.
func (r *Runtime) finish(n *node, failed bool, home int) []*node {
	r.mu.Lock()
	skipped := r.finishLocked(n, failed, home)
	r.mu.Unlock()
	return skipped
}

// runTask executes one attempt of a task body: the chaos layer may delay
// the attempt, kill it (soft: the worker survives and reports the injected
// error), kill the *worker* (hard: died is returned true and the caller's
// goroutine exits holding the task, leaving recovery to the watchdog), or
// hang it (the body parks until the watchdog abandons the attempt). Then
// fnErr (preferred) or fn, the task's body as the worker read it, runs
// with panic capture, so one faulty kernel can neither unwind a worker nor
// deadlock the pool. All chaos strikes before the body, so a re-executed
// attempt is bitwise-safe even for non-idempotent read-modify-write
// kernels.
func (r *Runtime) runTask(n *node, fn func(), fnErr func() error, att *attempt, attemptNum int) (err error, died bool) {
	if r.chaos.rng != nil {
		fate := r.chaos.draw()
		if fate.delay > 0 {
			time.Sleep(fate.delay)
		}
		switch {
		case fate.killWorker:
			return nil, true
		case fate.hang:
			// att is always non-nil here: New rejects hard chaos without a
			// task deadline. Park until the watchdog declares the attempt
			// lost, then exit through the abandoned-worker path.
			<-att.lost
			return nil, false
		case fate.kill:
			return &chaosError{kernel: n.task.Name, attempt: attemptNum}, false
		}
	}
	defer func() {
		if p := recover(); p != nil {
			err = &panicError{val: p}
		}
	}()
	if fnErr != nil {
		return fnErr(), false
	}
	if fn != nil {
		fn()
	}
	return nil, false
}

// resolveFailure routes one failed attempt: re-enqueue through the retry
// policy when retry (computed by report) is set, or make the failure
// permanent and poison the task's dependents. attempt is the caller's
// snapshot of the attempt number (the watchdog resolves abandoned attempts
// concurrently with the replacement execution, so n.attempts cannot be
// read here). home is the shard retries
// and newly-ready successors target. It returns the dependents skipped by
// a permanent failure (collected only under a SpanTracer).
func (r *Runtime) resolveFailure(n *node, err error, retry bool, attempt, home int) (skipped []*node) {
	if retry {
		delay := r.backoffFor(attempt)
		if delay <= 0 {
			r.enqueue(n, home)
			return nil
		}
		// The node stays in flight during backoff, so Wait and Shutdown
		// keep blocking until the retry resolves.
		time.AfterFunc(delay, func() {
			r.enqueue(n, home)
		})
		return nil
	}

	te := &TaskError{
		Kernel:   n.task.Name,
		Seq:      n.seq,
		Attempts: attempt,
		Writes:   append([]Handle(nil), n.task.Writes...),
		Err:      err,
	}
	if p, ok := err.(*panicError); ok {
		te.Panicked = true
		te.PanicValue = p.val
	}
	r.mu.Lock()
	r.failures = append(r.failures, te)
	skipped = r.finishLocked(n, true, home)
	r.mu.Unlock()
	return skipped
}

// finishLocked marks n complete — failed reports a permanent failure, a
// poisoned n is skipped without having run — releases its successors, and
// drains poisoned dependents inline: a dependent of a failed or skipped
// task never runs its body, because its inputs are garbage, but it still
// completes so the DAG drains. Successors made ready are enqueued on shard
// home. It returns the skipped tasks (collected only under a SpanTracer,
// for skip-span emission outside the lock). Caller holds r.mu; the drain
// stack is reused across calls so the steady-state dispatch path does not
// allocate.
func (r *Runtime) finishLocked(n *node, failed bool, home int) []*node {
	var skipped []*node
	n.failed = failed
	stack := append(r.finStack[:0], n)
	for len(stack) > 0 {
		d := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if d.poisoned {
			r.skipped++
			r.met.taskSkipped()
			if r.spanTracer != nil {
				skipped = append(skipped, d)
			}
		}
		d.done = true
		// The dependence tracker keeps done nodes as last writers and
		// readers; dropping the body lets the tiles it captures be
		// collected.
		d.task.Fn, d.task.FnErr = nil, nil
		for _, s := range d.succs {
			if d.failed || d.poisoned {
				s.poisoned = true
			}
			s.nDeps--
			if s.nDeps == 0 {
				if s.poisoned {
					stack = append(stack, s)
				} else {
					r.enqueue(s, home)
				}
			}
		}
		r.inFlight--
	}
	r.finStack = stack[:0]
	// Dependents collected for skip-span emission stay in flight until
	// completeSkipped runs, so Wait cannot observe a drained DAG whose
	// trace is still missing their spans.
	r.inFlight += len(skipped)
	if r.inFlight == 0 {
		r.cond.Broadcast()
	}
	return skipped
}

// completeSkipped retires poisoned dependents whose skip-spans have just
// been emitted; finishLocked deferred their inFlight decrement.
func (r *Runtime) completeSkipped(count int) {
	r.mu.Lock()
	r.inFlight -= count
	if r.inFlight == 0 {
		r.cond.Broadcast()
	}
	r.mu.Unlock()
}

// Wait blocks until all tasks submitted so far have completed. It is the
// fork–join barrier when called between phases. Wait is fail-fast: if any
// task panicked it re-raises the first panic on the caller's goroutine,
// and any other task failure is raised as a *FailuresError panic. Callers
// submitting error-returning tasks should use WaitErr instead.
func (r *Runtime) Wait() {
	err := r.WaitErr()
	if err == nil {
		return
	}
	fe := err.(*FailuresError)
	for _, f := range fe.Failures {
		if f.Panicked {
			panic(f.PanicValue)
		}
	}
	panic(fe)
}

// WaitErr blocks until all tasks submitted so far have completed and
// returns the epoch's aggregated failures as a *FailuresError (nil if
// every task succeeded). The failure state is consumed: the Runtime is
// reusable for a fresh epoch afterwards. Without a SpanTracer the
// dependence map is dropped too, since the drained epoch's tasks constrain
// nothing later.
func (r *Runtime) WaitErr() error {
	r.mu.Lock()
	for r.inFlight > 0 {
		r.cond.Wait()
	}
	fs := r.failures
	sk := r.skipped
	r.failures = nil
	r.skipped = 0
	r.epoch++
	if r.spanTracer == nil {
		// Every entry is a finished task of a closed epoch: it gates and
		// poisons nothing, and only a tracer reads it (for Deps).
		r.deps = deps[*node]{}
	}
	r.mu.Unlock()
	if len(fs) == 0 {
		return nil
	}
	return &FailuresError{Failures: fs, Skipped: sk}
}

// Shutdown waits for outstanding tasks (including pending retries) and
// stops the workers. It is idempotent, safe to call concurrently with
// Wait, WaitErr, or another Shutdown, and never panics — task failures
// left unconsumed are discarded with the Runtime. Submitting after
// Shutdown has completed panics.
func (r *Runtime) Shutdown() {
	r.mu.Lock()
	for r.inFlight > 0 {
		r.cond.Wait()
	}
	r.shutdown = true
	r.mu.Unlock()
	// Release the worker pool: every shard is empty (inFlight hit zero), so
	// workers parked in dequeue exit once woken.
	r.stopping.Store(true)
	r.idleMu.Lock()
	r.idleCond.Broadcast()
	r.idleMu.Unlock()
	// The watchdog outlives the last task so late overruns are still
	// reaped; it stops only here. Workers hung inside bodies (hard chaos,
	// or a genuinely stuck kernel) are abandoned goroutines by now — Go
	// cannot kill them — and exit whenever their bodies return.
	r.stopWatchdog()
}

// Workers reports the size of the worker pool.
func (r *Runtime) Workers() int { return r.workers }
