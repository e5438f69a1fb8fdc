package exadla

import (
	"errors"
	"time"

	"exadla/internal/core"
	"exadla/internal/obs"
	"exadla/internal/sched"
	"exadla/internal/trace"
)

// WithFaultTolerance arms ABFT protection on Cholesky, SolveSPD, InvertSPD,
// LU, Solve and Context.Resume: per-tile checksums are carried (or recorded)
// alongside the numerical tiles of the same tile program, verified after
// each panel step and once more over the finished factor, and detected
// corruption is corrected in place and re-verified through the scheduler's
// retry path. It composes with WithCheckpoint: every snapshot follows its
// step's verification, and a resumed run re-derives the checksums from the
// snapshot. If no retry policy was configured explicitly (WithTaskRetry), a
// default of 3 attempts with no backoff is installed, since recovery
// re-execution rides on task retries. Counts are reported by
// Context.FaultStats.
func WithFaultTolerance() Option {
	return func(c *Context) { c.faultTolerant = true }
}

// WithTaskRetry installs the scheduler retry policy: a transiently failed
// task is re-enqueued up to max times, with capped exponential backoff
// starting at the given delay (0 retries immediately). See sched.WithRetry.
func WithTaskRetry(max int, backoff time.Duration) Option {
	return func(c *Context) {
		c.retryMax, c.retryBackoff = max, backoff
		c.retrySet = true
	}
}

// WithChaos arms the scheduler's seeded fault-injection layer: every task
// attempt fails with probability taskFailProb before its body runs. Combine
// with WithTaskRetry to exercise recovery, or leave retries off to observe
// failure aggregation. It composes with WithHardChaos in either order, and
// when both arm a mode the stream is seeded here. For the delay
// distribution variant use the sched package directly.
func WithChaos(seed int64, taskFailProb float64) Option {
	return func(c *Context) {
		c.chaos.FailProb = taskFailProb
		if taskFailProb > 0 {
			c.chaos.Seed = seed
		}
	}
}

// WithTaskDeadline arms the scheduler's liveness watchdog: a task attempt
// that has not completed d after starting is presumed lost with its worker
// (hang, deadlock, dead process), the worker is replaced, and the task is
// re-executed through the retry path. Choose d comfortably above the
// slowest legitimate kernel — a deadline that fires on healthy tasks burns
// retry budget on re-executions that were never needed.
func WithTaskDeadline(d time.Duration) Option {
	return func(c *Context) { c.taskDeadline = d }
}

// WithHardChaos injects hard faults for resilience testing: each task
// attempt is, with the given probabilities, killed together with its
// worker (KillWorker: the goroutine executing it exits) or hung forever
// (HangTask: the attempt never completes) — both struck before the task
// body runs, so a watchdog re-execution computes on clean inputs.
// maxFaults caps the total number of strikes (negative means unlimited).
// Recovery requires the watchdog, so if no WithTaskDeadline was given a
// 2-second deadline is installed, and if no WithTaskRetry was given the
// retry budget defaults to 50 attempts (hard faults re-execute through
// the retry path). It composes with WithChaos in either order; seed seeds
// the stream unless WithChaos arms a mode too.
func WithHardChaos(seed int64, killWorkerProb, hangTaskProb float64, maxFaults int) Option {
	return func(c *Context) {
		c.hardChaos = true
		c.chaos.KillWorkerProb, c.chaos.HangProb, c.chaos.MaxFaults = killWorkerProb, hangTaskProb, maxFaults
		if (killWorkerProb > 0 || hangTaskProb > 0) && c.chaos.FailProb <= 0 {
			c.chaos.Seed = seed
		}
	}
}

// WithErasure arms per-tile-row XOR parity on top of ABFT (it implies
// WithFaultTolerance), on the same operations and composing with
// WithCheckpoint the same way: finalized, verified tiles are committed to a
// parity group (a resumed run re-commits the tiles its snapshot holds
// final), and a tile found wholesale-lost by checksum verification —
// faults across multiple columns rather than a single flipped entry — is
// rebuilt bit-exactly by XOR subtraction instead of failing the run.
// FaultStats.TilesReconstructed counts the rebuilds.
func WithErasure() Option {
	return func(c *Context) {
		c.faultTolerant = true
		c.erasure = true
	}
}

// FaultStats is a point-in-time snapshot of the Context's fault-tolerance
// counters, accumulated across operations since the Context was created.
type FaultStats struct {
	// Injected counts corruptions introduced through an injection hook
	// (exabench's fault driver; zero in production use).
	Injected int64
	// Detected counts verification events that found checksum faults, and
	// Corrected / Unlocated the per-fault outcomes.
	Detected, Corrected, Unlocated int64
	// Retried counts task attempts re-enqueued by the scheduler's retry
	// policy; Failed counts task failures that exhausted it (or were not
	// retryable).
	Retried, Failed int64
	// TilesReconstructed counts whole tiles rebuilt from row parity after
	// a hard loss (WithErasure).
	TilesReconstructed int64
	// TimedOut counts task attempts reaped by the liveness watchdog
	// (WithTaskDeadline) — each one also cost a presumed-dead worker its
	// slot (the pool replaces it).
	TimedOut int64
}

// FaultStats reports the fault-tolerance counters.
func (c *Context) FaultStats() FaultStats {
	return FaultStats{
		Injected:           c.ftStats.Injected.Load(),
		Detected:           c.ftStats.Detected.Load(),
		Corrected:          c.ftStats.Corrected.Load(),
		Unlocated:          c.ftStats.Unlocated.Load(),
		Retried:            c.retried.Load(),
		Failed:             c.failed.Load(),
		TilesReconstructed: c.ftStats.TilesReconstructed.Load(),
		TimedOut:           c.timedOut.Load(),
	}
}

// faultSchedOpts assembles the scheduler options implied by the Context's
// fault-tolerance configuration.
func (c *Context) faultSchedOpts() []sched.Option {
	var opts []sched.Option
	retryMax, backoff := c.retryMax, c.retryBackoff
	if !c.retrySet && c.faultTolerant {
		retryMax, backoff = 3, 0
	}
	if !c.retrySet && c.hardChaos {
		// Hard-fault recovery rides on retries, and every kill or hang
		// consumes one attempt: be generous by default.
		retryMax, backoff = 50, 0
	}
	if retryMax > 0 {
		opts = append(opts, sched.WithRetry(retryMax, backoff))
	}
	opts = append(opts, sched.WithChaos(c.chaos))
	deadline := c.taskDeadline
	if deadline <= 0 && c.hardChaos {
		// The watchdog is the only recovery path for hard chaos; arm it.
		deadline = 2 * time.Second
	}
	if deadline > 0 {
		opts = append(opts, sched.WithTaskDeadline(deadline))
	}
	// The observer runs only for failed attempts, so it costs a clean run
	// nothing; installing it always counts every failure in FaultStats.
	logFn := func(trace.Event, error) {}
	if c.eventLog != nil {
		logFn = obs.FailureLogger(c.eventLog)
	}
	return append(opts, sched.WithFailureObserver(func(e trace.Event, err error) {
		if e.Outcome != trace.OutcomeFailed {
			c.retried.Add(1)
		} else {
			c.failed.Add(1)
		}
		if errors.Is(err, sched.ErrTaskTimeout) {
			c.timedOut.Add(1)
		}
		logFn(e, err)
	}))
}

// ftOptions builds the per-operation ABFT options, nil unless
// WithFaultTolerance (or WithErasure) armed them. Corruption and loss
// injection hooks are deliberately not part of the public surface — the
// benchmark fault driver and the tests use internal/core directly.
func (c *Context) ftOptions() *core.FTOptions {
	if !c.faultTolerant {
		return nil
	}
	return &core.FTOptions{Stats: &c.ftStats, Erasure: c.erasure}
}
