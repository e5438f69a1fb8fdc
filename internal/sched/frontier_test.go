package sched

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"exadla/internal/trace"
)

// collectReady returns a Frontier whose ready events append to the returned
// slice.
func collectReady() (*Frontier, *[]int) {
	var ready []int
	f := NewFrontier(func(id int) { ready = append(ready, id) })
	return f, &ready
}

func TestFrontierRAWChain(t *testing.T) {
	f, ready := collectReady()
	h := "x"
	f.Add(0, nil, []Handle{h}) // writer
	f.Add(1, []Handle{h}, nil) // reader (RAW)
	f.Add(2, nil, []Handle{h}) // writer (WAR on 1, WAW on 0)
	if got := *ready; len(got) != 1 || got[0] != 0 {
		t.Fatalf("initial ready = %v, want [0]", got)
	}
	f.Complete(0)
	if got := *ready; len(got) != 2 || got[1] != 1 {
		t.Fatalf("after 0: ready = %v, want [0 1]", got)
	}
	f.Complete(1)
	if got := *ready; len(got) != 3 || got[2] != 2 {
		t.Fatalf("after 1: ready = %v, want [0 1 2]", got)
	}
	f.Complete(2)
	if !f.Done() || f.Pending() != 0 {
		t.Fatalf("not done: pending=%d", f.Pending())
	}
}

func TestFrontierDiamond(t *testing.T) {
	f, ready := collectReady()
	a, b, c := "a", "b", "c"
	f.Add(0, nil, []Handle{a})
	f.Add(1, []Handle{a}, []Handle{b})
	f.Add(2, []Handle{a}, []Handle{c})
	f.Add(3, []Handle{b, c}, nil)
	f.Complete(0)
	if got := *ready; len(got) != 3 { // 0, then 1 and 2
		t.Fatalf("after 0: ready = %v", got)
	}
	f.Complete(2)
	f.Complete(1)
	if got := *ready; got[len(got)-1] != 3 {
		t.Fatalf("join not released: ready = %v", got)
	}
}

func TestFrontierIndependentTasksAllReady(t *testing.T) {
	f, ready := collectReady()
	for i := 0; i < 5; i++ {
		f.Add(i, nil, []Handle{i})
	}
	if len(*ready) != 5 {
		t.Fatalf("ready = %v, want all five", *ready)
	}
}

func TestFrontierReadersShareThenWriterWaits(t *testing.T) {
	f, ready := collectReady()
	h := "h"
	f.Add(0, nil, []Handle{h})
	f.Complete(0)
	f.Add(1, []Handle{h}, nil)
	f.Add(2, []Handle{h}, nil)
	f.Add(3, nil, []Handle{h}) // WAR on both readers
	if got := *ready; len(got) != 3 {
		t.Fatalf("readers should be ready immediately: %v", got)
	}
	f.Complete(1)
	if len(*ready) != 3 {
		t.Fatalf("writer released after one of two readers")
	}
	f.Complete(2)
	if got := *ready; len(got) != 4 || got[3] != 3 {
		t.Fatalf("writer not released: %v", got)
	}
}

func TestFrontierCompletePanics(t *testing.T) {
	f, _ := collectReady()
	f.Add(0, nil, nil)
	f.Complete(0)
	for name, fn := range map[string]func(){
		"double":  func() { f.Complete(0) },
		"unknown": func() { f.Complete(99) },
		"dup-add": func() { f.Add(0, nil, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestFrontierMatchesRecorder drives random tile-DAG-shaped workloads
// through the Frontier, the Recorder and the Runtime. All three derive a
// task's edges by one rule, so the deps Frontier.Add returns, the recorded
// GraphNode.Deps and the Runtime's span Deps must agree as sets. The
// Frontier must also admit a full drain in any greedy order, never
// readying a task before all its deps completed.
func TestFrontierMatchesRecorder(t *testing.T) {
	sorted := func(ds []int) []int {
		ds = slices.Clone(ds)
		slices.Sort(ds)
		return ds
	}
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		nh := 2 + rng.Intn(6)
		handles := make([]Handle, nh)
		for i := range handles {
			handles[i] = i
		}
		ntasks := 5 + rng.Intn(40)
		rec := NewModelRecorder()
		var mu sync.Mutex
		spanDeps := map[int][]int{}
		rt := New(2, WithMetrics(nil), WithTracer(tracerFunc(func(sp trace.Event) {
			mu.Lock()
			spanDeps[sp.ID] = sp.Deps
			mu.Unlock()
		})))
		readySet := map[int]bool{}
		f := NewFrontier(func(id int) { readySet[id] = true })
		frontierDeps := make([][]int, ntasks)
		for i := 0; i < ntasks; i++ {
			writes := []Handle{handles[rng.Intn(nh)]}
			var reads []Handle
			for k := rng.Intn(3); k > 0; k-- {
				reads = append(reads, handles[rng.Intn(nh)])
			}
			rec.Submit(Task{Name: "t", Reads: reads, Writes: writes})
			rt.Submit(Task{Name: "t", Reads: reads, Writes: writes})
			frontierDeps[i] = f.Add(i, reads, writes)
		}
		rt.Wait()
		rt.Shutdown()
		g := rec.Graph()
		for i := 0; i < ntasks; i++ {
			want := sorted(g.Nodes[i].Deps)
			if got := sorted(frontierDeps[i]); !slices.Equal(got, want) {
				t.Fatalf("trial %d task %d: Frontier deps %v, Recorder deps %v", trial, i, got, want)
			}
			if got := sorted(spanDeps[i]); !slices.Equal(got, want) {
				t.Fatalf("trial %d task %d: Runtime span deps %v, Recorder deps %v", trial, i, got, want)
			}
		}

		completed := map[int]bool{}
		for !f.Done() {
			// Pick an arbitrary ready task, check its recorded deps are done.
			var pick = -1
			for id := range readySet {
				pick = id
				break
			}
			if pick < 0 {
				t.Fatalf("trial %d: frontier stuck with %d pending", trial, f.Pending())
			}
			for _, d := range g.Nodes[pick].Deps {
				if !completed[d] {
					t.Fatalf("trial %d: task %d ready before dep %d", trial, pick, d)
				}
			}
			delete(readySet, pick)
			completed[pick] = true
			f.Complete(pick)
		}
	}
}
