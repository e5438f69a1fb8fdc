package obs

import (
	"context"
	"errors"
	"log/slog"

	"exadla/internal/sched"
	"exadla/internal/trace"
)

// FailureLogger adapts a structured logger into a scheduler failure
// observer (sched.WithFailureObserver): each failed task attempt's record
// becomes one log record identifying which task failed (kernel and seq are
// the record's Name and ID), which attempt, how it failed, and whether the
// runtime is retrying (any Outcome but Failed). The event kind classifies
// the failure by its error:
//
//	chaos                  injected by WithChaos (errors.Is ErrInjected)
//	corruption-corrected   ABFT checksum fault, already repaired in place
//	timeout                watchdog deadline expiry (worker presumed lost)
//	panic                  the task body panicked
//	error                  any other task error
//
// Retried attempts log at Warn, permanent failures at Error.
func FailureLogger(l *slog.Logger) func(trace.Event, error) {
	return func(e trace.Event, err error) {
		kind := "error"
		var c sched.InPlaceCorrector
		switch {
		case errors.Is(err, sched.ErrPanicked):
			kind = "panic"
		case errors.Is(err, sched.ErrTaskTimeout):
			kind = "timeout"
		case errors.Is(err, sched.ErrInjected):
			kind = "chaos"
		case errors.As(err, &c) && c.CorrectedInPlace():
			kind = "corruption-corrected"
		}
		retrying := e.Outcome != trace.OutcomeFailed
		level := slog.LevelError
		msg := "task failed"
		if retrying {
			level, msg = slog.LevelWarn, "task attempt failed, retrying"
		}
		l.Log(context.Background(), level, msg,
			slog.String("kernel", e.Name),
			slog.Int("seq", e.ID),
			slog.Int("attempt", e.Attempt),
			slog.String("kind", kind),
			slog.Bool("retrying", retrying),
			slog.Any("err", err),
		)
	}
}

// DistLogger adapts a structured logger into a distributed-runtime fault
// observer (dist.Options.Events / exadla.DistConfig.EventLog): each
// cluster fault instant becomes one log record, its kind the instant's
// Phase, its task the ID, its detail the Err. Fleet-level faults that cost
// work (a worker evicted, a lease reaped for re-execution) log at Warn;
// faults the protocol absorbs by design (a stale commit rejected, an
// injected wire fault) log at Info. The hook is invoked under the
// coordinator's lock, so the adapter only logs — it never calls back into
// the coordinator.
func DistLogger(l *slog.Logger) func(trace.Event) {
	return func(e trace.Event) {
		level := slog.LevelInfo
		var msg string
		switch e.Phase {
		case trace.PhaseEvicted:
			level, msg = slog.LevelWarn, "worker evicted"
		case trace.PhaseReaped:
			level, msg = slog.LevelWarn, "lease reaped, task will re-execute"
		case trace.PhaseStale:
			msg = "stale commit rejected"
		case trace.PhaseChaos:
			msg = "injected wire fault"
		default:
			msg = "dist event"
		}
		attrs := []any{
			slog.String("kind", e.Phase),
			slog.Int("worker", e.Worker),
		}
		if e.ID >= 0 {
			attrs = append(attrs, slog.Int("task", e.ID))
		}
		if e.Attempt > 0 {
			attrs = append(attrs, slog.Int("attempt", e.Attempt))
		}
		if e.Err != "" {
			attrs = append(attrs, slog.String("detail", e.Err))
		}
		l.Log(context.Background(), level, msg, attrs...)
	}
}
