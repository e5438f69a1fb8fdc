package sched

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// This file is the runtime's liveness layer — the hard-fault half of the
// failure model. fault.go handles *soft* faults: a body that returns an
// error, panics, or is killed by chaos still hands control back to the
// runtime. A *hard* fault does not: the worker hangs inside a body, or the
// goroutine dies holding the task, and without intervention Wait blocks
// forever. WithTaskDeadline restores liveness: it arms a watchdog. Every
// attempt is registered with a deadline; a polling watchdog abandons
// attempts that overrun it, marks the executing worker dead, spawns a
// replacement worker under the same id, and routes the task back through
// the ordinary retry path as a transient *TimeoutError. Go cannot kill a
// goroutine, so an abandoned worker that eventually returns from its body
// discovers the abandonment and exits instead of double-completing the
// task.
//
// The watchdog's correctness constraint: the deadline must comfortably
// exceed the worst-case task execution time. A legitimately slow attempt
// that overruns the deadline is re-executed while the original may still
// be running — harmless for idempotent bodies, unsound for in-place
// read-modify-write kernels. The chaos modes that exercise this layer
// (Chaos.KillWorkerProb and Chaos.HangProb) therefore strike strictly
// before the body runs, keeping chaos runs bitwise identical to clean runs
// under retries. An abandoned attempt is reported like any failed one: its
// trace.Event (Outcome TimedOut, or Failed once the budget is spent) goes
// to the tracer and, with its *TimeoutError, to the failure observer.

// ErrTaskTimeout is the root of every watchdog-abandoned attempt's error,
// for errors.Is checks in tests and policies.
var ErrTaskTimeout = errors.New("task deadline exceeded")

// TimeoutError reports one task attempt abandoned by the watchdog: the
// attempt ran past the runtime's task deadline, the executing worker was
// declared dead, and the task was handed back to the retry policy.
type TimeoutError struct {
	// Kernel and Seq identify the task.
	Kernel string
	Seq    int
	// Attempt is the 1-based attempt number that was abandoned.
	Attempt int
	// Worker is the worker declared dead.
	Worker int
	// Deadline is the per-task deadline that was exceeded.
	Deadline time.Duration
}

func (e *TimeoutError) Error() string {
	return fmt.Sprintf("task %q (seq %d) attempt %d exceeded %v deadline on worker %d; worker marked dead",
		e.Kernel, e.Seq, e.Attempt, e.Deadline, e.Worker)
}

func (e *TimeoutError) Unwrap() error { return ErrTaskTimeout }

// WithTaskDeadline bounds every task attempt to d and arms the watchdog:
// an attempt still running past d is abandoned, its worker is declared
// dead (a replacement worker is spawned so the pool keeps its capacity),
// and the task is re-enqueued through the retry path as a transient
// timeout, counted by the sched.tasks_timed_out and sched.workers_lost
// metrics and reported as a trace.OutcomeTimedOut attempt.
//
// d must comfortably exceed the worst-case execution time of any single
// task: the runtime cannot distinguish a hung worker from a slow one, and
// re-executing an attempt whose original is still mutating its output
// tile is unsound for non-idempotent kernels.
func WithTaskDeadline(d time.Duration) Option {
	return func(r *Runtime) {
		if d <= 0 {
			return
		}
		r.taskDeadline = d
	}
}

// attempt tracks one in-flight task execution for the watchdog. Fields are
// set at registration and immutable afterwards, except abandoned, which is
// guarded by Runtime.watchMu.
type attempt struct {
	n       *node
	worker  int
	num     int   // 1-based attempt number
	readyAt int64 // trace-epoch enqueue time, for the abandoned span
	start   int64 // trace-epoch start time
	began   time.Time
	// lost is closed when the watchdog abandons the attempt; chaos-hung
	// bodies park on it so deterministic hang tests terminate.
	lost      chan struct{}
	abandoned bool
}

// attemptPool recycles attempt records between registrations. Only
// attempts that completed normally are pooled: an abandoned attempt stays
// referenced by its zombie worker (and its lost channel is closed), so it
// is left for the garbage collector.
var attemptPool = sync.Pool{New: func() any { return &attempt{} }}

// registerAttempt records the start of one attempt with the watchdog.
// Returns nil when no deadline is armed.
func (r *Runtime) registerAttempt(n *node, worker, num int, readyAt, start int64) *attempt {
	if r.taskDeadline <= 0 {
		return nil
	}
	att := attemptPool.Get().(*attempt)
	att.n = n
	att.worker = worker
	att.num = num
	att.readyAt = readyAt
	att.start = start
	att.began = time.Now()
	att.abandoned = false
	if att.lost == nil {
		// A pooled attempt that was never abandoned still holds an open,
		// reusable channel.
		att.lost = make(chan struct{})
	}
	r.watchMu.Lock()
	r.running[att] = struct{}{}
	r.watchMu.Unlock()
	return att
}

// completeAttempt deregisters an attempt whose body returned. It reports
// false when the watchdog abandoned the attempt first: the task has
// already been re-enqueued elsewhere and a replacement worker owns this
// worker's slot, so the caller must discard the result and exit.
func (r *Runtime) completeAttempt(att *attempt) bool {
	if att == nil {
		return true
	}
	r.watchMu.Lock()
	abandoned := att.abandoned
	if !abandoned {
		delete(r.running, att)
	}
	r.watchMu.Unlock()
	if !abandoned {
		att.n = nil
		attemptPool.Put(att)
	}
	return !abandoned
}

// startWatchdog arms the deadline poller. Called from New when a task
// deadline is configured.
func (r *Runtime) startWatchdog() {
	r.running = make(map[*attempt]struct{})
	r.watchStop = make(chan struct{})
	r.watchDone = make(chan struct{})
	// Poll at a quarter of the deadline so overruns are detected within
	// ~1.25·d, clamped to keep the poller cheap and responsive.
	poll := r.taskDeadline / 4
	if poll < time.Millisecond {
		poll = time.Millisecond
	}
	if poll > time.Second {
		poll = time.Second
	}
	go r.watchdog(poll)
}

// stopWatchdog halts the poller and waits for it to exit. Idempotent.
func (r *Runtime) stopWatchdog() {
	if r.watchStop == nil {
		return
	}
	r.watchOnce.Do(func() { close(r.watchStop) })
	<-r.watchDone
}

func (r *Runtime) watchdog(poll time.Duration) {
	defer close(r.watchDone)
	t := time.NewTicker(poll)
	defer t.Stop()
	for {
		select {
		case <-r.watchStop:
			return
		case <-t.C:
			r.reapOverdue()
		}
	}
}

// reapOverdue abandons every attempt past its deadline and recovers each
// one: the worker is replaced and the task re-routed through the failure
// path outside watchMu (resolveFailure takes Runtime.mu).
func (r *Runtime) reapOverdue() {
	var overdue []*attempt
	now := time.Now()
	r.watchMu.Lock()
	for att := range r.running {
		if now.Sub(att.began) > r.taskDeadline {
			att.abandoned = true
			close(att.lost)
			delete(r.running, att)
			overdue = append(overdue, att)
		}
	}
	r.watchMu.Unlock()
	for _, att := range overdue {
		r.recoverLost(att)
	}
}

// recoverLost handles one abandoned attempt: the worker is presumed dead
// (hung inside a body, or its goroutine gone), so a replacement worker is
// spawned under the same id — the pool keeps its capacity and the
// per-worker metrics their indices — and the timeout is routed through
// resolveFailure like any transient attempt failure. If the worker was
// merely hung, its goroutine discovers the abandonment when the body
// returns (completeAttempt reports false) and exits quietly.
func (r *Runtime) recoverLost(att *attempt) {
	r.met.workerLost()
	go r.worker(att.worker)

	err := &TimeoutError{
		Kernel:   att.n.task.Name,
		Seq:      att.n.seq,
		Attempt:  att.num,
		Worker:   att.worker,
		Deadline: r.taskDeadline,
	}
	end := traceNow()
	retrying := r.report(att.n, att.worker, att.num, att.readyAt, att.start, end, err)
	skipped := r.resolveFailure(att.n, err, retrying, att.num, att.worker)
	if len(skipped) > 0 {
		r.emitSkipped(skipped, end)
		r.completeSkipped(len(skipped))
	}
}
