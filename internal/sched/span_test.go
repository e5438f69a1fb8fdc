// Span-model tests: the runtime must emit one full-fidelity span per task
// attempt (and per poisoned task) with correct identities, dependence
// edges, attempt numbers, and outcomes on both the clean and the
// fault-tolerant paths.
package sched_test

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"exadla/internal/sched"
	"exadla/internal/trace"
)

// spanCollector is a sched.SpanTracer keeping every span it receives.
type spanCollector struct {
	mu    sync.Mutex
	spans []trace.Event
}

func (c *spanCollector) TaskSpan(sp trace.Event) {
	c.mu.Lock()
	c.spans = append(c.spans, sp)
	c.mu.Unlock()
}

func (c *spanCollector) byID() map[int][]trace.Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := map[int][]trace.Event{}
	for _, sp := range c.spans {
		m[sp.ID] = append(m[sp.ID], sp)
	}
	return m
}

// count reads the collector's span count under its lock.
func (c *spanCollector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.spans)
}

func TestSpansCleanChain(t *testing.T) {
	col := &spanCollector{}
	rt := sched.New(2, sched.WithTracer(col))
	h := sched.Handle(1)
	for i := 0; i < 3; i++ {
		rt.Submit(sched.Task{Name: "step", Writes: []sched.Handle{h}, Fn: func() {}})
	}
	rt.Wait()
	rt.Shutdown()

	if nSpans := col.count(); nSpans != 3 {
		t.Fatalf("got %d spans, want 3", nSpans)
	}
	byID := col.byID()
	for id := 0; id < 3; id++ {
		sps := byID[id]
		if len(sps) != 1 {
			t.Fatalf("task %d: %d spans, want 1", id, len(sps))
		}
		sp := sps[0]
		if sp.Outcome != trace.OutcomeOK || sp.Attempt != 1 || sp.Err != "" {
			t.Errorf("task %d: outcome=%v attempt=%d err=%q", id, sp.Outcome, sp.Attempt, sp.Err)
		}
		if sp.Worker < 0 || sp.Start > sp.End || sp.Ready == 0 || sp.QueueWait() < 0 {
			t.Errorf("task %d: worker=%d ready=%d start=%d end=%d", id, sp.Worker, sp.Ready, sp.Start, sp.End)
		}
		// WAW chain: task i depends exactly on task i-1.
		if id == 0 {
			if len(sp.Deps) != 0 {
				t.Errorf("task 0 deps = %v, want none", sp.Deps)
			}
		} else if len(sp.Deps) != 1 || sp.Deps[0] != id-1 {
			t.Errorf("task %d deps = %v, want [%d]", id, sp.Deps, id-1)
		}
	}
}

func TestSpansRetryAttempts(t *testing.T) {
	col := &spanCollector{}
	rt := sched.New(2, sched.WithTracer(col), sched.WithRetry(5, 0))
	var tries atomic.Int64
	rt.Submit(sched.Task{Name: "flaky", FnErr: func() error {
		if tries.Add(1) <= 2 {
			return errors.New("transient")
		}
		return nil
	}})
	if err := rt.WaitErr(); err != nil {
		t.Fatalf("WaitErr: %v", err)
	}
	rt.Shutdown()

	sps := col.byID()[0]
	if len(sps) != 3 {
		t.Fatalf("got %d spans, want 3 attempts", len(sps))
	}
	for i, sp := range sps {
		if sp.Attempt != i+1 {
			t.Errorf("span %d: attempt %d, want %d", i, sp.Attempt, i+1)
		}
	}
	if sps[0].Outcome != trace.OutcomeRetried || sps[1].Outcome != trace.OutcomeRetried {
		t.Errorf("retried attempts: outcomes %v %v", sps[0].Outcome, sps[1].Outcome)
	}
	if sps[0].Err == "" {
		t.Error("retried span carries no error")
	}
	if sps[2].Outcome != trace.OutcomeOK {
		t.Errorf("final attempt outcome %v", sps[2].Outcome)
	}
}

func TestSpansFailureAndSkip(t *testing.T) {
	col := &spanCollector{}
	rt := sched.New(2, sched.WithTracer(col))
	h := sched.Handle(1)
	// "bad" may fail before or after the dependent is submitted: either
	// way the dependent is skipped, with one skip-span.
	rt.Submit(sched.Task{Name: "bad", Writes: []sched.Handle{h}, FnErr: func() error {
		return errors.New("boom")
	}})
	rt.Submit(sched.Task{Name: "dependent", Reads: []sched.Handle{h}, Fn: func() {}})
	if err := rt.WaitErr(); err == nil {
		t.Fatal("WaitErr returned nil for a failed graph")
	}
	rt.Shutdown()

	byID := col.byID()
	bad, dep := byID[0], byID[1]
	if len(bad) != 1 || bad[0].Outcome != trace.OutcomeFailed || bad[0].Err == "" {
		t.Fatalf("failed task spans: %+v", bad)
	}
	if len(dep) != 1 {
		t.Fatalf("dependent spans: %+v", dep)
	}
	sk := dep[0]
	if sk.Outcome != trace.OutcomeSkipped || sk.Attempt != 0 || sk.Worker != -1 {
		t.Errorf("skipped span: outcome=%v attempt=%d worker=%d", sk.Outcome, sk.Attempt, sk.Worker)
	}
	if len(sk.Deps) != 1 || sk.Deps[0] != 0 {
		t.Errorf("skipped span deps = %v, want [0]", sk.Deps)
	}
	if sk.Start != sk.End {
		t.Errorf("skipped span has duration: %d..%d", sk.Start, sk.End)
	}
}

// TestSpansCompleteAtWait pins the emission-ordering guarantee: every span
// — attempt spans and skip-spans alike — is emitted before Wait/WaitErr can
// observe the DAG drained, so a caller reading the tracer right after Wait
// always sees the complete trace.
func TestSpansCompleteAtWait(t *testing.T) {
	col := &spanCollector{}
	rt := sched.New(4, sched.WithTracer(col))
	defer rt.Shutdown()
	total := 0
	for round := 0; round < 25; round++ {
		h := sched.Handle(round)
		rt.Submit(sched.Task{Name: "bad", Writes: []sched.Handle{h}, FnErr: func() error {
			return errors.New("boom")
		}})
		rt.Submit(sched.Task{Name: "dep", Reads: []sched.Handle{h}, Fn: func() {}})
		for i := 0; i < 6; i++ {
			rt.Submit(sched.Task{Name: "ok", Fn: func() {}})
		}
		total += 8
		if err := rt.WaitErr(); err == nil {
			t.Fatal("WaitErr returned nil for a failed graph")
		}
		if n := col.count(); n != total {
			t.Fatalf("round %d: %d spans at WaitErr-return, want %d", round, n, total)
		}
	}
}

// corrErr simulates the ABFT corruption report: retryable, with the fault
// already corrected in place.
type corrErr struct{}

func (corrErr) Error() string          { return "checksum fault, corrected in place" }
func (corrErr) CorrectedInPlace() bool { return true }

func TestSpansCorrectedOutcome(t *testing.T) {
	col := &spanCollector{}
	rt := sched.New(1, sched.WithTracer(col), sched.WithRetry(3, 0))
	var tries atomic.Int64
	rt.Submit(sched.Task{Name: "verify", FnErr: func() error {
		if tries.Add(1) == 1 {
			return corrErr{}
		}
		return nil
	}})
	if err := rt.WaitErr(); err != nil {
		t.Fatalf("WaitErr: %v", err)
	}
	rt.Shutdown()

	sps := col.byID()[0]
	if len(sps) != 2 {
		t.Fatalf("got %d spans, want 2", len(sps))
	}
	if sps[0].Outcome != trace.OutcomeCorrected {
		t.Errorf("first attempt outcome %v, want corrected", sps[0].Outcome)
	}
	if sps[1].Outcome != trace.OutcomeOK {
		t.Errorf("second attempt outcome %v, want ok", sps[1].Outcome)
	}
}
