package sched

import "errors"

// This file is the runtime's span model — the full-fidelity successor to
// the bare (name, worker, start, end) trace event. A span is one *attempt*
// of one task, carrying everything the DAG-level analyses need: the task's
// identity (its submission sequence number), its dependence edges, when it
// became ready versus when a worker actually picked it up (queue wait),
// which attempt this was, and how the attempt ended. Retried tasks emit one
// span per attempt under the same ID; poisoned dependents emit a single
// zero-length span with OutcomeSkipped so the DAG view stays complete.

// Outcome classifies how one task attempt (or a skipped task) ended.
type Outcome uint8

const (
	// OutcomeOK is a successful attempt.
	OutcomeOK Outcome = iota
	// OutcomeRetried is a transiently failed attempt the runtime re-enqueued.
	OutcomeRetried
	// OutcomeFailed is the attempt that made a failure permanent (retry
	// budget exhausted, panic, or a Permanent-wrapped error).
	OutcomeFailed
	// OutcomeCorrected is a retried attempt whose error reported the
	// underlying fault as already corrected in place (ABFT corruption
	// recovery): the retry re-verifies rather than re-computes.
	OutcomeCorrected
	// OutcomeSkipped marks a task that never ran because an upstream
	// failure poisoned it. Skipped spans have Attempt 0 and Worker -1.
	OutcomeSkipped
	// OutcomeTimedOut is an attempt the watchdog abandoned because it
	// overran the task deadline (see WithTaskDeadline): the executing
	// worker is presumed dead and the task is re-enqueued through the
	// retry path. An attempt whose timeout exhausts the retry budget is
	// reported as OutcomeFailed instead, like any other permanent failure.
	OutcomeTimedOut
)

// String returns the lower-case label used in traces and structured logs.
func (o Outcome) String() string {
	switch o {
	case OutcomeOK:
		return "ok"
	case OutcomeRetried:
		return "retried"
	case OutcomeFailed:
		return "failed"
	case OutcomeCorrected:
		return "corrected"
	case OutcomeSkipped:
		return "skipped"
	case OutcomeTimedOut:
		return "timed_out"
	}
	return "unknown"
}

// Span describes one task attempt with full DAG context. Times are
// nanoseconds since the trace epoch.
type Span struct {
	// ID is the task's submission sequence number, unique within a Runtime
	// and shared by every attempt of the same task.
	ID int
	// Name is the kernel label.
	Name string
	// Worker is the worker that ran the attempt (-1 for skipped tasks).
	Worker int
	// Attempt is the 1-based attempt number (0 for skipped tasks).
	Attempt int
	// Deps are the IDs of the tasks this task depends on (RAW/WAR/WAW
	// edges derived at submission, deduplicated).
	Deps []int
	// Ready is when the attempt was enqueued on the ready queue; Start-Ready
	// is the attempt's queue wait. Zero when unknown.
	Ready int64
	// Start and End bound the attempt's execution.
	Start, End int64
	// Outcome classifies how the attempt ended.
	Outcome Outcome
	// Err is the attempt's failure message (empty for OK and skipped spans).
	Err string
}

// QueueWait returns Start-Ready, the time the attempt sat ready but
// unserved, or 0 when the ready time is unknown.
func (s Span) QueueWait() int64 {
	if s.Ready == 0 || s.Ready > s.Start {
		return 0
	}
	return s.Start - s.Ready
}

// SpanTracer receives a Runtime's task spans (see WithTracer): one
// TaskSpan call per task attempt and per skipped task. Implementations must
// be safe for concurrent use.
type SpanTracer interface {
	// TaskSpan reports one completed task attempt or one skipped task.
	TaskSpan(Span)
}

// InPlaceCorrector is implemented by task errors (such as the ABFT
// corruption report) that indicate the underlying fault was corrected in
// place before the retryable error was returned. The runtime records such
// retried attempts as OutcomeCorrected.
type InPlaceCorrector interface {
	CorrectedInPlace() bool
}

// outcomeOf classifies one failed-or-not attempt given the retry decision.
func outcomeOf(err error, retrying bool) Outcome {
	if err == nil {
		return OutcomeOK
	}
	if retrying {
		var c InPlaceCorrector
		if errors.As(err, &c) && c.CorrectedInPlace() {
			return OutcomeCorrected
		}
		return OutcomeRetried
	}
	return OutcomeFailed
}
