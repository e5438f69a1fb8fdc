package sched

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"
)

// This file is the runtime's failure model — the "faults are the norm"
// rule applied to the scheduler itself. A task can fail three ways:
//
//   - its FnErr body returns an error (the task ran and reported failure);
//   - its body panics (captured per-task, never unwinding a worker);
//   - the chaos layer kills the attempt before the body runs (modelling an
//     executor that died holding the task, numpywren-style).
//
// A failed attempt is either retried — re-enqueued with capped exponential
// backoff, if the Runtime has a retry policy and the error is transient —
// or made permanent. A permanent failure poisons the task's dependents:
// they are skipped without running (their outputs would be garbage), the
// DAG still drains, and WaitErr reports the root failures plus the skip
// count. Wait keeps its legacy fail-fast semantics (it panics).
//
// Hard faults — a worker that dies or hangs holding a task, never handing
// control back — are the watchdog's job; see liveness.go. The chaos modes
// here (WithHardChaos) inject exactly those faults deterministically.

// TaskError describes one permanently failed task with its kernel and
// data-handle context.
type TaskError struct {
	// Kernel is the task's Name.
	Kernel string
	// Seq is the task's submission index.
	Seq int
	// Attempts is how many times the task was executed (or killed by chaos)
	// before the failure became permanent.
	Attempts int
	// Writes lists the handles the task would have produced.
	Writes []Handle
	// Panicked reports that the last attempt panicked; PanicValue holds the
	// recovered value.
	Panicked   bool
	PanicValue any
	// Err is the underlying failure.
	Err error
}

func (e *TaskError) Error() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "task %q (seq %d", e.Kernel, e.Seq)
	if len(e.Writes) > 0 {
		fmt.Fprintf(&sb, ", writes %v", e.Writes)
	}
	fmt.Fprintf(&sb, ") failed after %d attempt(s): %v", e.Attempts, e.Err)
	return sb.String()
}

func (e *TaskError) Unwrap() error { return e.Err }

// FailuresError aggregates every permanent task failure of one Wait epoch.
type FailuresError struct {
	// Failures are the root causes, in completion order.
	Failures []*TaskError
	// Skipped counts dependent tasks that were poisoned and never ran.
	Skipped int
}

func (e *FailuresError) Error() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "sched: %d task(s) failed", len(e.Failures))
	if e.Skipped > 0 {
		fmt.Fprintf(&sb, ", %d dependent task(s) skipped", e.Skipped)
	}
	if len(e.Failures) > 0 {
		fmt.Fprintf(&sb, "; first: %v", e.Failures[0])
	}
	return sb.String()
}

// Unwrap exposes the individual task errors to errors.Is/As.
func (e *FailuresError) Unwrap() []error {
	errs := make([]error, len(e.Failures))
	for i, f := range e.Failures {
		errs[i] = f
	}
	return errs
}

// panicError adapts a recovered panic value into the error plumbing.
type panicError struct{ val any }

func (e *panicError) Error() string { return fmt.Sprintf("task panicked: %v", e.val) }

// permanentError marks an error as non-retryable.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// Permanent wraps err so the retry policy treats the failure as
// non-transient: the task fails immediately, without re-execution. Use it
// from FnErr bodies for deterministic errors (bad input, unrecoverable
// state) that retrying cannot fix.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err: err}
}

// retryable reports whether a failure should go through the retry path:
// panics and Permanent-wrapped errors are final, everything else is
// presumed transient.
func retryable(err error) bool {
	var pe *panicError
	if errors.As(err, &pe) {
		return false
	}
	var perm *permanentError
	return !errors.As(err, &perm)
}

// ErrInjected is the root of every chaos-injected failure, for errors.Is
// checks in tests and policies.
var ErrInjected = errors.New("injected chaos failure")

// chaosError carries the attempt context of one injected failure.
type chaosError struct {
	kernel  string
	attempt int
}

func (e *chaosError) Error() string {
	return fmt.Sprintf("chaos: killed %q attempt %d before execution", e.kernel, e.attempt)
}

func (e *chaosError) Unwrap() error { return ErrInjected }

// DelayDist draws one scheduling delay from a distribution. The rng is the
// chaos layer's seeded stream; implementations must not retain it.
type DelayDist func(rng *rand.Rand) time.Duration

// UniformDelay returns a DelayDist uniform on [0, max).
func UniformDelay(max time.Duration) DelayDist {
	if max <= 0 {
		return nil
	}
	return func(rng *rand.Rand) time.Duration {
		return time.Duration(rng.Int63n(int64(max)))
	}
}

// chaosState is the scheduler-level fault injector: a seeded stream (the
// ft.Injector discipline — same seed, same decision sequence) that kills
// or delays task attempts (soft faults), and — when the hard modes are
// armed via WithHardChaos — kills the executing worker outright or hangs
// the attempt, exercising the watchdog. Decisions are drawn under a lock
// so the stream stays a single deterministic sequence; which attempt
// receives which draw still depends on worker interleaving, as real soft
// errors do. The hard-mode draws are only taken when hard chaos is armed,
// so seeded soft-chaos streams are unchanged by this extension.
type chaosState struct {
	mu       sync.Mutex
	rng      *rand.Rand
	failProb float64
	delay    DelayDist

	// Hard modes (WithHardChaos). budget caps the number of hard faults
	// injected, so "kill exactly k workers" sweeps are expressible; a
	// negative budget is unlimited.
	killWorkerProb float64
	hangProb       float64
	budget         int
}

// chaosFate is the outcome of one chaos draw for one task attempt. At most
// one of kill/killWorker/hang is set.
type chaosFate struct {
	kill       bool // soft: fail the attempt, worker survives
	killWorker bool // hard: the worker goroutine dies holding the task
	hang       bool // hard: the body blocks until the watchdog abandons it
	delay      time.Duration
}

// hard reports whether any hard-fault mode is armed (watchdog required).
func (c *chaosState) hard() bool { return c.killWorkerProb > 0 || c.hangProb > 0 }

// draw returns the fate of one task attempt.
func (c *chaosState) draw() (f chaosFate) {
	c.mu.Lock()
	f.kill = c.rng.Float64() < c.failProb
	if c.delay != nil {
		f.delay = c.delay(c.rng)
	}
	if c.hard() && c.budget != 0 {
		// One extra draw decides the hard fate; soft-only configurations
		// never reach here, keeping their seeded streams unchanged.
		u := c.rng.Float64()
		switch {
		case u < c.killWorkerProb:
			f.killWorker, f.kill = true, false
		case u < c.killWorkerProb+c.hangProb:
			f.hang, f.kill = true, false
		}
		if (f.killWorker || f.hang) && c.budget > 0 {
			c.budget--
		}
	}
	c.mu.Unlock()
	return f
}

// WithRetry installs a retry policy: a transiently failed task is
// re-enqueued up to max times (so it executes at most max+1 times) with
// capped exponential backoff — backoff, 2·backoff, 4·backoff, … capped at
// 64·backoff. A zero backoff re-enqueues immediately. Panics and
// Permanent-wrapped errors are never retried.
func WithRetry(max int, backoff time.Duration) Option {
	return func(r *Runtime) {
		if max < 0 {
			max = 0
		}
		r.retryMax = max
		r.retryBackoff = backoff
	}
}

// WithChaos attaches a seeded fault/delay injector to the runtime: each
// task attempt is killed before execution with probability taskFailProb
// and (independently) delayed by a draw from delayDist (nil for no
// delays). Killed attempts go through the retry path like any transient
// failure, so resilience is testable under -race with a deterministic
// failure budget.
func WithChaos(seed int64, taskFailProb float64, delayDist DelayDist) Option {
	return func(r *Runtime) {
		if taskFailProb <= 0 && delayDist == nil {
			return
		}
		r.chaos = &chaosState{
			rng:      rand.New(rand.NewSource(seed)),
			failProb: taskFailProb,
			delay:    delayDist,
		}
	}
}

// WithHardChaos arms the chaos layer's hard-fault modes: each task attempt
// kills its worker goroutine outright with probability killWorkerProb, or
// hangs forever with probability hangProb. When WithChaos is also present
// the soft layer's seeded stream is shared (and seed here is ignored);
// alone, WithHardChaos seeds its own stream.
// Both strike strictly before the body runs, so watchdog re-execution is
// bitwise-safe for non-idempotent kernels. maxFaults caps the total number
// of hard faults injected (negative for unlimited), making "kill exactly k
// workers at seeded points" sweeps deterministic. Hard chaos requires
// WithTaskDeadline — New panics otherwise, because nothing else can
// recover a dead or hung worker.
func WithHardChaos(seed int64, killWorkerProb, hangProb float64, maxFaults int) Option {
	return func(r *Runtime) {
		if killWorkerProb <= 0 && hangProb <= 0 {
			return
		}
		if r.chaos == nil {
			r.chaos = &chaosState{rng: rand.New(rand.NewSource(seed))}
		}
		r.chaos.killWorkerProb = killWorkerProb
		r.chaos.hangProb = hangProb
		r.chaos.budget = maxFaults
	}
}

// FailureEvent describes one failed task attempt, delivered to the
// failure observer.
type FailureEvent struct {
	// Kernel and Seq identify the task.
	Kernel string
	Seq    int
	// Attempt is the 1-based attempt number that failed.
	Attempt int
	// Err is the attempt's failure.
	Err error
	// Panicked reports a panic failure.
	Panicked bool
	// Retrying reports whether the runtime will re-enqueue the task.
	Retrying bool
	// TimedOut reports a watchdog abandonment: the attempt overran the
	// task deadline and its worker was declared dead (see WithTaskDeadline).
	TimedOut bool
}

// WithFailureObserver registers a callback invoked once per failed task
// attempt (retried or permanent). The observer runs on a worker goroutine
// outside the runtime lock; it must be safe for concurrent use and must
// not call back into the Runtime.
func WithFailureObserver(fn func(FailureEvent)) Option {
	return func(r *Runtime) { r.failObs = fn }
}

// backoffFor computes the capped exponential backoff before re-running a
// task whose attempt-th execution just failed.
func (r *Runtime) backoffFor(attempt int) time.Duration {
	if r.retryBackoff <= 0 {
		return 0
	}
	shift := attempt - 1
	if shift > 6 {
		shift = 6 // cap at 64×
	}
	return r.retryBackoff << uint(shift)
}
