package sched

import (
	"errors"

	"exadla/internal/trace"
)

// This file is where the runtime emits its task attempts. Each attempt's
// record is one trace.Event: the task's identity (its submission sequence
// number), its dependence edges, when it became ready versus when a worker
// actually picked it up (queue wait), which attempt this was, and how the
// attempt ended. Retried tasks emit one event per attempt under the same
// ID; poisoned dependents emit a single zero-length event with
// trace.OutcomeSkipped so the DAG view stays complete.

// SpanTracer receives a Runtime's task attempts (see WithTracer): one
// TaskSpan call per task attempt and per skipped task. Implementations must
// be safe for concurrent use.
type SpanTracer interface {
	// TaskSpan reports one completed task attempt or one skipped task.
	TaskSpan(trace.Event)
}

var _ SpanTracer = (*trace.Log)(nil)

// span builds the record of one attempt of n on worker, the one
// constructor behind the worker loop, emitSkipped and the watchdog's
// recoverLost. A skipped task has attempt 0 and worker -1.
func (n *node) span(worker, attempt int, ready, start, end int64, out trace.Outcome, err error) trace.Event {
	e := trace.Event{
		ID:      n.seq,
		Name:    n.task.Name,
		Worker:  worker,
		Attempt: attempt,
		Deps:    n.deps,
		Ready:   ready,
		Start:   start,
		End:     end,
		Outcome: out,
	}
	if err != nil {
		e.Err = err.Error()
	}
	return e
}

// InPlaceCorrector is implemented by task errors (such as the ABFT
// corruption report) that indicate the underlying fault was corrected in
// place before the retryable error was returned. The runtime records such
// retried attempts as trace.OutcomeCorrected.
type InPlaceCorrector interface {
	CorrectedInPlace() bool
}

// outcomeOf classifies one failed-or-not attempt given the retry decision.
func outcomeOf(err error, retrying bool) trace.Outcome {
	if err == nil {
		return trace.OutcomeOK
	}
	if !retrying {
		return trace.OutcomeFailed
	}
	if errors.Is(err, ErrTaskTimeout) {
		return trace.OutcomeTimedOut
	}
	var c InPlaceCorrector
	if errors.As(err, &c) && c.CorrectedInPlace() {
		return trace.OutcomeCorrected
	}
	return trace.OutcomeRetried
}
