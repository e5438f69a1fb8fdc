package sched

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"exadla/internal/trace"
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
// count. Wait keeps its legacy fail-fast semantics (it panics). Either
// way the attempt's one record, the trace.Event its tracer receives, goes
// with its typed error to the failure observer (WithFailureObserver).
//
// Hard faults — a worker that dies or hangs holding a task, never handing
// control back — are the watchdog's job; see liveness.go. The hard modes
// of Chaos inject exactly those faults deterministically.

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

// ErrPanicked is the root of every panicked attempt's error, for
// errors.Is checks in tests and policies.
var ErrPanicked = errors.New("task panicked")

// panicError adapts a recovered panic value into the error plumbing.
type panicError struct{ val any }

func (e *panicError) Error() string { return fmt.Sprintf("task panicked: %v", e.val) }
func (e *panicError) Unwrap() error { return ErrPanicked }

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

// Chaos configures the scheduler-level fault injector (WithChaos): a
// stream seeded by Seed (the ft.Injector discipline — same seed, same
// decision sequence) that draws a fate for every task attempt before its
// body runs. The soft modes kill the attempt with probability FailProb
// (the worker survives) and delay it by a draw from Delay (nil for none).
// The hard modes kill its worker goroutine outright with probability
// KillWorkerProb, or hang it until the watchdog abandons it with
// probability HangProb; at most MaxFaults of them strike (negative for
// unlimited), so "kill exactly k workers at seeded points" sweeps are
// deterministic. Hard chaos requires WithTaskDeadline — New panics
// otherwise, because nothing else can recover a dead or hung worker. The
// zero value injects nothing.
type Chaos struct {
	Seed                     int64
	FailProb                 float64
	Delay                    DelayDist
	KillWorkerProb, HangProb float64
	MaxFaults                int
}

func (c Chaos) soft() bool { return c.FailProb > 0 || c.Delay != nil }
func (c Chaos) hard() bool { return c.KillWorkerProb > 0 || c.HangProb > 0 }

// merge folds o into c: o's soft modes replace c's when o arms one, and
// its hard modes when o arms one. The soft modes' seed wins, so adding
// hard modes leaves a seeded soft stream's draws where they were.
func (c Chaos) merge(o Chaos) Chaos {
	if o.hard() {
		c.KillWorkerProb, c.HangProb, c.MaxFaults = o.KillWorkerProb, o.HangProb, o.MaxFaults
		if !c.soft() {
			c.Seed = o.Seed
		}
	}
	if o.soft() {
		c.Seed, c.FailProb, c.Delay = o.Seed, o.FailProb, o.Delay
	}
	return c
}

// chaosState is the merged WithChaos configuration, armed by New (rng
// set) when it arms a mode. Decisions are drawn under a lock so the stream
// stays a single deterministic sequence; which attempt receives which
// draw still depends on worker interleaving, as real soft errors do. Its
// MaxFaults counts down as hard faults strike.
type chaosState struct {
	mu  sync.Mutex
	rng *rand.Rand
	Chaos
}

// chaosFate is the outcome of one chaos draw for one task attempt. At most
// one of kill/killWorker/hang is set.
type chaosFate struct {
	kill       bool // soft: fail the attempt, worker survives
	killWorker bool // hard: the worker goroutine dies holding the task
	hang       bool // hard: the body blocks until the watchdog abandons it
	delay      time.Duration
}

// draw returns the fate of one task attempt: the soft draw, then the
// optional delay, then — only when a hard mode is armed and its budget
// lasts — the hard draw, so soft-only streams never see a hard draw.
func (c *chaosState) draw() (f chaosFate) {
	c.mu.Lock()
	f.kill = c.rng.Float64() < c.FailProb
	if c.Delay != nil {
		f.delay = c.Delay(c.rng)
	}
	if c.hard() && c.MaxFaults != 0 {
		u := c.rng.Float64()
		switch {
		case u < c.KillWorkerProb:
			f.killWorker, f.kill = true, false
		case u < c.KillWorkerProb+c.HangProb:
			f.hang, f.kill = true, false
		}
		if (f.killWorker || f.hang) && c.MaxFaults > 0 {
			c.MaxFaults--
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

// WithChaos attaches the seeded fault injector c to the runtime. A soft
// kill takes the retry path like any transient failure, so resilience is
// testable under -race with a deterministic failure budget; hard faults
// strike strictly before the body runs, so watchdog re-execution is
// bitwise-safe for non-idempotent kernels. WithChaos options compose in
// any order: each sets the modes it arms, and the soft modes' Seed seeds
// the stream when both kinds are armed.
func WithChaos(c Chaos) Option {
	return func(r *Runtime) { r.chaos.Chaos = r.chaos.merge(c) }
}

// WithFailureObserver registers a callback invoked once per failed task
// attempt (retried or permanent) with the attempt's record — the very
// trace.Event a SpanTracer receives, Outcome Retried, Corrected, TimedOut
// or Failed — and its typed error (errors.Is ErrInjected, ErrPanicked,
// ErrTaskTimeout). The observer runs on a worker or watchdog goroutine
// outside the runtime lock; it must be safe for concurrent use and must
// not call back into the Runtime.
func WithFailureObserver(fn func(trace.Event, error)) Option {
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
