// Liveness-layer tests: the watchdog must detect attempts stuck past the
// task deadline, declare their workers dead, replace them, and re-execute
// the work through the retry path; the hard chaos modes must exercise all
// of it with a deterministic fault budget.
package sched_test

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"exadla/internal/metrics"
	"exadla/internal/sched"
	"exadla/internal/trace"
)

// TestWatchdogRecoversHungTask hangs a body on its first attempt only: the
// watchdog must abandon it, replace the worker, and let the retry succeed.
func TestWatchdogRecoversHungTask(t *testing.T) {
	reg := metrics.New()
	col := &spanCollector{}
	type failure struct {
		e   trace.Event
		err error
	}
	var evMu atomic.Pointer[[]failure]
	evMu.Store(&[]failure{})
	rt := sched.New(2,
		sched.WithTaskDeadline(40*time.Millisecond),
		sched.WithRetry(3, 0),
		sched.WithMetrics(reg),
		sched.WithTracer(col),
		sched.WithFailureObserver(func(e trace.Event, err error) {
			evs := append(*evMu.Load(), failure{e, err})
			evMu.Store(&evs)
		}))
	defer rt.Shutdown()

	stuck := make(chan struct{})
	var tries atomic.Int32
	var secondRan atomic.Int32
	rt.Submit(sched.Task{Name: "sticky", Fn: func() {
		if tries.Add(1) == 1 {
			<-stuck // first attempt hangs past the deadline
			return
		}
		secondRan.Add(1)
	}})
	if err := rt.WaitErr(); err != nil {
		t.Fatalf("WaitErr after watchdog recovery: %v", err)
	}
	close(stuck) // release the zombie goroutine

	if secondRan.Load() != 1 {
		t.Fatalf("re-executed attempt ran %d times, want 1", secondRan.Load())
	}
	snap := snapshotCounters(reg)
	if snap["sched.tasks_timed_out"] != 1 {
		t.Errorf("tasks_timed_out = %d, want 1", snap["sched.tasks_timed_out"])
	}
	if snap["sched.workers_lost"] != 1 {
		t.Errorf("workers_lost = %d, want 1", snap["sched.workers_lost"])
	}
	if snap["sched.tasks_retried"] != 1 {
		t.Errorf("tasks_retried = %d, want 1 (the timeout re-enqueue)", snap["sched.tasks_retried"])
	}

	// Span trail: attempt 1 timed out, attempt 2 ok, same task ID.
	var timedOut, ok int
	for _, sp := range col.byID() {
		for _, s := range sp {
			switch s.Outcome {
			case trace.OutcomeTimedOut:
				timedOut++
				if s.Attempt != 1 {
					t.Errorf("timed-out span attempt = %d, want 1", s.Attempt)
				}
				if s.Err == "" {
					t.Error("timed-out span has empty Err")
				}
			case trace.OutcomeOK:
				ok++
				if s.Attempt != 2 {
					t.Errorf("ok span attempt = %d, want 2", s.Attempt)
				}
			}
		}
	}
	if timedOut != 1 || ok != 1 {
		t.Errorf("spans timed_out=%d ok=%d, want 1/1", timedOut, ok)
	}

	// Failure observer saw the timeout with the TimedOut flag.
	evs := *evMu.Load()
	if len(evs) != 1 || !errors.Is(evs[0].err, sched.ErrTaskTimeout) || evs[0].e.Outcome == trace.OutcomeFailed {
		t.Errorf("failure events = %+v, want one retrying TimedOut event", evs)
	}
	if !errors.Is(evs[0].err, sched.ErrTaskTimeout) {
		t.Errorf("event error %v does not wrap ErrTaskTimeout", evs[0].err)
	}
}

// TestWatchdogTimeoutExhaustsRetries: with no retry budget a timeout is a
// permanent failure reported through WaitErr, and dependents are poisoned.
func TestWatchdogTimeoutExhaustsRetries(t *testing.T) {
	rt := sched.New(2, sched.WithTaskDeadline(30*time.Millisecond))
	defer rt.Shutdown()

	stuck := make(chan struct{})
	defer close(stuck)
	h := sched.Handle("h")
	rt.Submit(sched.Task{Name: "stuck", Writes: []sched.Handle{h}, Fn: func() { <-stuck }})
	var depRan atomic.Int32
	rt.Submit(sched.Task{Name: "dep", Reads: []sched.Handle{h}, Fn: func() { depRan.Add(1) }})

	err := rt.WaitErr()
	var fe *sched.FailuresError
	if !errors.As(err, &fe) {
		t.Fatalf("WaitErr = %v, want FailuresError", err)
	}
	if !errors.Is(err, sched.ErrTaskTimeout) {
		t.Fatalf("failure %v does not wrap ErrTaskTimeout", err)
	}
	var te *sched.TimeoutError
	if !errors.As(err, &te) || te.Kernel != "stuck" || te.Attempt != 1 {
		t.Fatalf("failure %v missing TimeoutError context", err)
	}
	if fe.Skipped != 1 || depRan.Load() != 0 {
		t.Fatalf("dependent not poisoned: skipped=%d ran=%d", fe.Skipped, depRan.Load())
	}
}

// TestHardChaosKillWorker kills workers at seeded points: the watchdog
// must replace them and re-execute their tasks; the pool must survive with
// full capacity for follow-up work.
func TestHardChaosKillWorker(t *testing.T) {
	reg := metrics.New()
	rt := sched.New(4,
		sched.WithTaskDeadline(50*time.Millisecond),
		sched.WithRetry(10, 0),
		sched.WithMetrics(reg),
		sched.WithChaos(sched.Chaos{Seed: 99, KillWorkerProb: 0.15, MaxFaults: 3}))
	defer rt.Shutdown()

	var ran atomic.Int32
	for i := 0; i < 60; i++ {
		rt.Submit(sched.Task{Name: "work", Fn: func() { ran.Add(1) }})
	}
	if err := rt.WaitErr(); err != nil {
		t.Fatalf("WaitErr under worker-kill chaos: %v", err)
	}
	if ran.Load() != 60 {
		t.Fatalf("ran %d tasks, want 60", ran.Load())
	}
	snap := snapshotCounters(reg)
	lost := snap["sched.workers_lost"]
	if lost == 0 || lost > 3 {
		t.Fatalf("workers_lost = %d, want 1..3 (budget 3, p=0.15 over 60 tasks)", lost)
	}
	if snap["sched.tasks_timed_out"] != lost {
		t.Errorf("tasks_timed_out = %d != workers_lost = %d", snap["sched.tasks_timed_out"], lost)
	}

	// The pool still has its full capacity: more work completes.
	for i := 0; i < 20; i++ {
		rt.Submit(sched.Task{Name: "more", Fn: func() { ran.Add(1) }})
	}
	if err := rt.WaitErr(); err != nil {
		t.Fatalf("WaitErr after recovery: %v", err)
	}
	if ran.Load() != 80 {
		t.Fatalf("ran %d tasks total, want 80", ran.Load())
	}
}

// TestHardChaosHangTask hangs attempts at seeded points; the watchdog
// abandons them and the retry path completes the work.
func TestHardChaosHangTask(t *testing.T) {
	reg := metrics.New()
	rt := sched.New(4,
		sched.WithTaskDeadline(50*time.Millisecond),
		sched.WithRetry(10, 0),
		sched.WithMetrics(reg),
		sched.WithChaos(sched.Chaos{Seed: 7, HangProb: 0.2, MaxFaults: 2}))
	defer rt.Shutdown()

	var ran atomic.Int32
	for i := 0; i < 40; i++ {
		rt.Submit(sched.Task{Name: "work", Fn: func() { ran.Add(1) }})
	}
	if err := rt.WaitErr(); err != nil {
		t.Fatalf("WaitErr under hang chaos: %v", err)
	}
	if ran.Load() != 40 {
		t.Fatalf("ran %d tasks, want 40", ran.Load())
	}
	snap := snapshotCounters(reg)
	if snap["sched.tasks_timed_out"] == 0 {
		t.Error("hang chaos at p=0.2 triggered no watchdog abandonments")
	}
	if snap["sched.tasks_timed_out"] > 2 {
		t.Errorf("tasks_timed_out = %d exceeds fault budget 2", snap["sched.tasks_timed_out"])
	}
}

// TestHardChaosRequiresDeadline: arming hard chaos without a watchdog
// deadline must panic at construction — nothing could ever recover.
func TestHardChaosRequiresDeadline(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with hard chaos but no WithTaskDeadline did not panic")
		}
	}()
	sched.New(2, sched.WithChaos(sched.Chaos{Seed: 1, KillWorkerProb: 0.5, MaxFaults: -1}))
}

// TestHardChaosDeterministicWithChaosStream: soft-chaos-only seeded runs
// must be unaffected by the hard-mode extension (no extra rng draws when
// hard probabilities are zero). Two identical soft configurations see the
// same kill pattern whether or not the (disarmed) hard option is present.
func TestHardChaosDeterministicWithChaosStream(t *testing.T) {
	runPattern := func(opts ...sched.Option) []int {
		var mu atomic.Pointer[[]int]
		seqs := []int{}
		mu.Store(&seqs)
		all := append([]sched.Option{
			sched.WithRetry(100, 0),
			sched.WithFailureObserver(func(e trace.Event, _ error) {
				s := append(*mu.Load(), e.ID)
				mu.Store(&s)
			}),
		}, opts...)
		rt := sched.New(1, all...)
		defer rt.Shutdown()
		for i := 0; i < 50; i++ {
			rt.Submit(sched.Task{Name: "probe", Fn: func() {}})
		}
		rt.Wait()
		return *mu.Load()
	}

	base := runPattern(sched.WithChaos(sched.Chaos{Seed: 42, FailProb: 0.2}))
	withDisarmed := runPattern(sched.WithChaos(sched.Chaos{Seed: 42, FailProb: 0.2}), sched.WithChaos(sched.Chaos{Seed: 42, MaxFaults: -1}))
	if len(base) == 0 {
		t.Fatal("soft chaos at p=0.2 injected nothing")
	}
	if len(base) != len(withDisarmed) {
		t.Fatalf("disarmed hard chaos changed the soft stream: %d vs %d kills", len(base), len(withDisarmed))
	}
	for i := range base {
		if base[i] != withDisarmed[i] {
			t.Fatalf("kill pattern diverged at %d: seq %d vs %d", i, base[i], withDisarmed[i])
		}
	}
}

// snapshotCounters flattens a registry snapshot's counters by name.
func snapshotCounters(reg *metrics.Registry) map[string]int64 {
	return reg.Snapshot().Counters
}
