package sched

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"exadla/internal/trace"
)

func TestRuntimeRunsAllTasks(t *testing.T) {
	r := New(4)
	defer r.Shutdown()
	var count atomic.Int64
	for i := 0; i < 100; i++ {
		r.Submit(Task{Name: "inc", Fn: func() { count.Add(1) }})
	}
	r.Wait()
	if got := count.Load(); got != 100 {
		t.Errorf("ran %d tasks, want 100", got)
	}
}

func TestRAWOrdering(t *testing.T) {
	// writer → reader must observe the write.
	r := New(4)
	defer r.Shutdown()
	h := "x"
	for trial := 0; trial < 50; trial++ {
		var v int
		var got int
		r.Submit(Task{Name: "w", Writes: []Handle{h}, Fn: func() { v = 42 }})
		r.Submit(Task{Name: "r", Reads: []Handle{h}, Fn: func() { got = v }})
		r.Wait()
		if got != 42 {
			t.Fatalf("trial %d: reader saw %d", trial, got)
		}
		v = 0
	}
}

func TestWAWOrdering(t *testing.T) {
	// Two writers to the same handle must apply in submission order.
	r := New(4)
	defer r.Shutdown()
	h := "x"
	for trial := 0; trial < 50; trial++ {
		var v int
		r.Submit(Task{Name: "w1", Writes: []Handle{h}, Fn: func() { v = 1 }})
		r.Submit(Task{Name: "w2", Writes: []Handle{h}, Fn: func() { v = 2 }})
		r.Wait()
		if v != 2 {
			t.Fatalf("trial %d: final value %d", trial, v)
		}
	}
}

func TestWAROrdering(t *testing.T) {
	// A writer submitted after readers must wait for all of them.
	r := New(8)
	defer r.Shutdown()
	h := "x"
	for trial := 0; trial < 20; trial++ {
		v := 7
		reads := make([]int, 10)
		for i := 0; i < 10; i++ {
			i := i
			r.Submit(Task{Name: "r", Reads: []Handle{h}, Fn: func() { reads[i] = v }})
		}
		r.Submit(Task{Name: "w", Writes: []Handle{h}, Fn: func() { v = 99 }})
		r.Wait()
		for i, got := range reads {
			if got != 7 {
				t.Fatalf("trial %d: reader %d saw %d (writer overtook)", trial, i, got)
			}
		}
	}
}

func TestIndependentTasksRunConcurrently(t *testing.T) {
	// With W workers and W mutually-blocking tasks, all must be in flight
	// at once — proving the runtime doesn't serialize independent work.
	const w = 4
	r := New(w)
	defer r.Shutdown()
	var mu sync.Mutex
	cond := sync.NewCond(&mu)
	arrived := 0
	for i := 0; i < w; i++ {
		r.Submit(Task{Name: "rendezvous", Fn: func() {
			mu.Lock()
			arrived++
			cond.Broadcast()
			for arrived < w {
				cond.Wait()
			}
			mu.Unlock()
		}})
	}
	r.Wait() // deadlocks if the runtime cannot run 4 tasks concurrently
}

func TestReadersRunAfterSingleWrite(t *testing.T) {
	// Multiple readers of one handle must not be serialized against each
	// other: they all run between the two writes.
	r := New(4)
	defer r.Shutdown()
	h := "m"
	var stage atomic.Int64
	stage.Store(1)
	bad := atomic.Int64{}
	r.Submit(Task{Name: "w1", Writes: []Handle{h}, Fn: func() { stage.Store(2) }})
	for i := 0; i < 8; i++ {
		r.Submit(Task{Name: "r", Reads: []Handle{h}, Fn: func() {
			if stage.Load() != 2 {
				bad.Add(1)
			}
		}})
	}
	r.Submit(Task{Name: "w2", Writes: []Handle{h}, Fn: func() { stage.Store(3) }})
	r.Wait()
	if bad.Load() != 0 {
		t.Errorf("%d readers observed wrong stage", bad.Load())
	}
}

func TestPriorityOrdering(t *testing.T) {
	// With one worker, ready tasks must run in priority order.
	r := New(1)
	defer r.Shutdown()
	var mu sync.Mutex
	var order []int
	// Block the worker so all tasks become ready before any runs: the
	// prioritized tasks are submitted only once the gate task holds the
	// worker, or the worker could pick one of them before the gate.
	gate, started := make(chan struct{}), make(chan struct{})
	r.Submit(Task{Name: "gate", Fn: func() { close(started); <-gate }})
	<-started
	for _, p := range []int{1, 5, 3, 2, 4} {
		p := p
		r.Submit(Task{Name: "t", Priority: p, Fn: func() {
			mu.Lock()
			order = append(order, p)
			mu.Unlock()
		}})
	}
	close(gate)
	r.Wait()
	want := []int{5, 4, 3, 2, 1}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

func TestChainIsSequential(t *testing.T) {
	// A read-modify-write chain on one handle forms a strict sequence.
	r := New(8)
	defer r.Shutdown()
	h := "acc"
	v := 0
	const steps = 200
	for i := 0; i < steps; i++ {
		r.Submit(Task{Name: "rmw", Reads: []Handle{h}, Writes: []Handle{h}, Fn: func() { v++ }})
	}
	r.Wait()
	if v != steps {
		t.Errorf("chain result %d, want %d", v, steps)
	}
}

// TestRandomGraphLinearizable builds random task graphs over a few handles
// where every task does read-modify-writes; executing with many workers
// must produce the same per-handle values as a sequential execution.
func TestRandomGraphLinearizable(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const nh = 6
		type op struct{ reads, writes []int }
		nTasks := 30 + rng.Intn(50)
		ops := make([]op, nTasks)
		for i := range ops {
			var o op
			for h := 0; h < nh; h++ {
				switch rng.Intn(4) {
				case 0:
					o.reads = append(o.reads, h)
				case 1:
					o.writes = append(o.writes, h)
				}
			}
			ops[i] = o
		}
		exec := func(workers int) [nh]int64 {
			var vals [nh]int64
			var r Scheduler
			var rt *Runtime
			if workers > 0 {
				rt = New(workers)
				r = rt
			} else {
				r = NewRecorder()
			}
			for i, o := range ops {
				i := i
				o := o
				var reads, writes []Handle
				for _, h := range o.reads {
					reads = append(reads, h)
				}
				for _, h := range o.writes {
					writes = append(writes, h)
				}
				r.Submit(Task{Name: "t", Reads: reads, Writes: writes, Fn: func() {
					var acc int64
					for _, h := range o.reads {
						acc += atomic.LoadInt64(&vals[h])
					}
					for _, h := range o.writes {
						atomic.StoreInt64(&vals[h], acc+int64(i)+1)
					}
				}})
			}
			r.Wait()
			if rt != nil {
				rt.Shutdown()
			}
			return vals
		}
		seq := exec(0) // recorder executes inline in submission order
		par := exec(6)
		return seq == par
	}
	cfg := &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(99))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestWaitAsBarrier(t *testing.T) {
	r := New(4)
	defer r.Shutdown()
	var phase1 atomic.Int64
	for i := 0; i < 20; i++ {
		r.Submit(Task{Name: "p1", Fn: func() { phase1.Add(1) }})
	}
	r.Wait()
	if phase1.Load() != 20 {
		t.Fatal("Wait returned before phase completed")
	}
	// Runtime must be reusable after Wait.
	var phase2 atomic.Int64
	for i := 0; i < 20; i++ {
		r.Submit(Task{Name: "p2", Fn: func() { phase2.Add(1) }})
	}
	r.Wait()
	if phase2.Load() != 20 {
		t.Fatal("second phase incomplete")
	}
}

func TestSubmitAfterShutdownPanics(t *testing.T) {
	r := New(1)
	r.Shutdown()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	r.Submit(Task{Name: "late"})
}

func TestTracerReceivesEvents(t *testing.T) {
	var mu sync.Mutex
	var names []string
	tr := tracerFunc(func(sp trace.Event) {
		mu.Lock()
		names = append(names, sp.Name)
		mu.Unlock()
	})
	r := New(2, WithTracer(tr))
	defer r.Shutdown()
	r.Submit(Task{Name: "a"})
	r.Submit(Task{Name: "b"})
	r.Wait()
	if len(names) != 2 {
		t.Errorf("tracer saw %d events, want 2", len(names))
	}
}

type tracerFunc func(trace.Event)

func (f tracerFunc) TaskSpan(sp trace.Event) { f(sp) }

func TestTaskPanicPropagatesToWait(t *testing.T) {
	r := New(2)
	defer func() {
		// Shutdown's internal Wait must not re-panic (already consumed).
		r.Shutdown()
	}()
	var after atomic.Int64
	r.Submit(Task{Name: "boom", Fn: func() { panic("kernel exploded") }})
	r.Submit(Task{Name: "ok", Fn: func() { after.Add(1) }})
	func() {
		defer func() {
			if p := recover(); p != "kernel exploded" {
				t.Errorf("Wait panicked with %v", p)
			}
		}()
		r.Wait()
		t.Error("Wait returned instead of panicking")
	}()
	// The pool must still be alive for subsequent work.
	r.Submit(Task{Name: "more", Fn: func() { after.Add(1) }})
	r.Wait()
	if after.Load() != 2 {
		t.Errorf("post-panic tasks ran %d times, want 2", after.Load())
	}
}

func TestDependentsPoisonedAfterPanic(t *testing.T) {
	// A panicking writer poisons its dependents: they are skipped (their
	// input is garbage) but the DAG still drains, and unrelated tasks run.
	r := New(2)
	defer r.Shutdown()
	h := "x"
	ran := atomic.Bool{}
	unrelated := atomic.Bool{}
	r.Submit(Task{Name: "boom", Writes: []Handle{h}, Fn: func() { panic("x") }})
	r.Submit(Task{Name: "reader", Reads: []Handle{h}, Fn: func() { ran.Store(true) }})
	r.Submit(Task{Name: "bystander", Fn: func() { unrelated.Store(true) }})
	err := r.WaitErr()
	if ran.Load() {
		t.Error("dependent task ran on a poisoned input")
	}
	if !unrelated.Load() {
		t.Error("unrelated task was not executed")
	}
	var fe *FailuresError
	if !errors.As(err, &fe) {
		t.Fatalf("WaitErr returned %v, want *FailuresError", err)
	}
	if len(fe.Failures) != 1 || !fe.Failures[0].Panicked || fe.Failures[0].Kernel != "boom" {
		t.Errorf("failures = %+v, want one panicked failure of kernel boom", fe.Failures)
	}
	if fe.Skipped != 1 {
		t.Errorf("skipped = %d, want 1", fe.Skipped)
	}
}
