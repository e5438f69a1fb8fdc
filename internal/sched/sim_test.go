package sched

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"exadla/internal/trace"
)

// analyze simulates g on workers virtual workers and measures the schedule.
func analyze(g *Graph, workers int) trace.DAGStats {
	return trace.NewLog(Simulate(g, workers)...).AnalyzeDAG()
}

// chainGraph builds a linear chain of n unit-cost tasks.
func chainGraph(n int) *Graph {
	g := &Graph{}
	for i := 0; i < n; i++ {
		node := GraphNode{Name: "t", Cost: 1}
		if i > 0 {
			node.Deps = []int{i - 1}
		}
		g.Nodes = append(g.Nodes, node)
	}
	return g
}

// wideGraph builds n independent unit-cost tasks.
func wideGraph(n int) *Graph {
	g := &Graph{}
	for i := 0; i < n; i++ {
		g.Nodes = append(g.Nodes, GraphNode{Name: "t", Cost: 1})
	}
	return g
}

func TestSimulateChain(t *testing.T) {
	g := chainGraph(10)
	for _, w := range []int{1, 2, 16} {
		d := analyze(g, w)
		if math.Abs(d.Makespan-10) > 1e-12 {
			t.Errorf("chain with %d workers: makespan %v, want 10", w, d.Makespan)
		}
		if math.Abs(d.TInf-10) > 1e-12 {
			t.Errorf("critical path %v, want 10", d.TInf)
		}
	}
}

func TestSimulateWide(t *testing.T) {
	g := wideGraph(12)
	cases := []struct {
		workers int
		want    float64
	}{{1, 12}, {2, 6}, {3, 4}, {4, 3}, {12, 1}, {100, 1}}
	for _, c := range cases {
		d := analyze(g, c.workers)
		if math.Abs(d.Makespan-c.want) > 1e-12 {
			t.Errorf("wide with %d workers: makespan %v, want %v", c.workers, d.Makespan, c.want)
		}
		if math.Abs(d.TInf-1) > 1e-12 {
			t.Errorf("critical path %v, want 1", d.TInf)
		}
	}
}

func TestSimulateForkJoinVsDataflow(t *testing.T) {
	// Two phases of 4 unit tasks each where only one cross dependence
	// exists. Fork–join (barrier) needs ≥ 2 rounds regardless; dataflow
	// overlaps everything except the single chain.
	df := &Graph{Nodes: []GraphNode{
		{Cost: 1}, {Cost: 1}, {Cost: 1}, {Cost: 1},
		{Cost: 1, Deps: []int{0}}, {Cost: 1}, {Cost: 1}, {Cost: 1},
	}}
	fj := &Graph{Nodes: []GraphNode{
		{Cost: 1}, {Cost: 1}, {Cost: 1}, {Cost: 1},
		{Barrier: true, Deps: []int{0, 1, 2, 3}},
		{Cost: 1, Deps: []int{4}}, {Cost: 1, Deps: []int{4}},
		{Cost: 1, Deps: []int{4}}, {Cost: 1, Deps: []int{4}},
	}}
	// With 8 workers dataflow finishes in 2 (the chain), and so does
	// fork-join; with 4 workers both need 2; with 8 workers but uneven
	// split dataflow wins. Use 7 workers: dataflow can start phase-2 tasks
	// 5..7 immediately (they have no deps), finishing in max(chain)=2;
	// fork-join still needs 2 full rounds = 2. Distinguish via utilization
	// at 3 workers.
	dfRes := analyze(df, 3)
	fjRes := analyze(fj, 3)
	if dfRes.Makespan > fjRes.Makespan+1e-12 {
		t.Errorf("dataflow (%v) slower than fork-join (%v)", dfRes.Makespan, fjRes.Makespan)
	}
	if dfRes.T1 != 8 || fjRes.T1 != 8 {
		t.Errorf("busy time wrong: %v %v", dfRes.T1, fjRes.T1)
	}
}

func TestSimulateRespectsDeps(t *testing.T) {
	// Diamond: 0 → {1, 2} → 3, costs 1; with ∞ workers makespan is 3.
	g := &Graph{Nodes: []GraphNode{
		{Cost: 1},
		{Cost: 1, Deps: []int{0}},
		{Cost: 1, Deps: []int{0}},
		{Cost: 1, Deps: []int{1, 2}},
	}}
	if d := analyze(g, 16); math.Abs(d.Makespan-3) > 1e-12 {
		t.Errorf("diamond makespan %v, want 3", d.Makespan)
	}
}

// Property: makespan is monotone non-increasing in workers, bounded below
// by max(critical path, total/P) and above by total work.
func TestSimulateBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(60)
		g := &Graph{}
		for i := 0; i < n; i++ {
			node := GraphNode{Cost: rng.Float64() + 0.01}
			// Random deps on earlier nodes.
			for d := 0; d < i; d++ {
				if rng.Intn(8) == 0 {
					node.Deps = append(node.Deps, d)
				}
			}
			g.Nodes = append(g.Nodes, node)
		}
		for _, w := range []int{1, 2, 4, 8, 64} {
			d := analyze(g, w)
			lower := math.Max(d.TInf, d.T1/float64(w))
			if d.Makespan > d.T1+1e-9 || d.Makespan < lower-1e-9 {
				return false
			}
			// Greedy list scheduling guarantees ≤ 2·OPT; monotonicity in
			// workers can be violated by greedy anomalies in theory, but
			// the 2x bound must always hold.
			if d.Makespan > 2*lower+1e-9 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(7))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestRecorderGraph(t *testing.T) {
	rec := NewRecorder()
	h1, h2 := "a", "b"
	order := []string{}
	rec.Submit(Task{Name: "w1", Writes: []Handle{h1}, Fn: func() { order = append(order, "w1") }})
	rec.Submit(Task{Name: "w2", Writes: []Handle{h2}, Fn: func() { order = append(order, "w2") }})
	rec.Submit(Task{Name: "r12", Reads: []Handle{h1, h2}, Fn: func() { order = append(order, "r12") }})
	g := rec.Graph()
	if len(g.Nodes) != 3 {
		t.Fatalf("%d nodes", len(g.Nodes))
	}
	if len(g.Nodes[0].Deps) != 0 || len(g.Nodes[1].Deps) != 0 {
		t.Error("independent writers must have no deps")
	}
	deps := g.Nodes[2].Deps
	if len(deps) != 2 {
		t.Errorf("reader deps %v, want both writers", deps)
	}
	// Inline execution order must match submission order.
	want := []string{"w1", "w2", "r12"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("execution order %v", order)
		}
	}
}

func TestRecorderBarrier(t *testing.T) {
	rec := NewRecorder()
	rec.Submit(Task{Name: "a"})
	rec.Submit(Task{Name: "b"})
	rec.Wait()
	rec.Submit(Task{Name: "c"})
	g := rec.Graph()
	if len(g.Nodes) != 4 {
		t.Fatalf("%d nodes, want 4 (incl. barrier)", len(g.Nodes))
	}
	bar := g.Nodes[2]
	if !bar.Barrier || len(bar.Deps) != 2 {
		t.Errorf("barrier node malformed: %+v", bar)
	}
	c := g.Nodes[3]
	found := false
	for _, d := range c.Deps {
		if d == 2 {
			found = true
		}
	}
	if !found {
		t.Errorf("task after barrier lacks barrier dep: %v", c.Deps)
	}
	if d := analyze(g, 1); d.Tasks != 3 {
		t.Errorf("Tasks = %d, want 3", d.Tasks)
	}
	// Consecutive barriers collapse.
	rec.Wait()
	rec.Wait()
	if len(rec.Graph().Nodes) != 5 {
		t.Errorf("double barrier added extra nodes: %d", len(rec.Graph().Nodes))
	}
}

func TestRecorderMeasuresCost(t *testing.T) {
	rec := NewRecorder()
	rec.Submit(Task{Name: "spin", Fn: func() {
		s := 0.0
		for i := 0; i < 100000; i++ {
			s += float64(i)
		}
		_ = s
	}})
	g := rec.Graph()
	if g.Nodes[0].Cost <= 0 {
		t.Error("cost not measured")
	}
}

func TestSimulateEmptyGraph(t *testing.T) {
	if events := Simulate(&Graph{}, 4); len(events) != 0 {
		t.Errorf("empty graph scheduled %d tasks", len(events))
	}
}

// TestSimulateRootsFIFO pins the ready order's tie rule on roots: one
// worker starts equal-priority ready tasks in submission order, as the
// Runtime does, and a higher priority still runs first.
func TestSimulateRootsFIFO(t *testing.T) {
	for _, tc := range []struct {
		prio []int
		want []int
	}{
		{[]int{0, 0, 0, 0, 0}, []int{0, 1, 2, 3, 4}},
		{[]int{1, 0, 2, 0, 2}, []int{2, 4, 0, 1, 3}},
	} {
		g := &Graph{}
		for _, p := range tc.prio {
			g.Nodes = append(g.Nodes, GraphNode{Name: "t", Cost: 1, Priority: p})
		}
		var got []int
		for _, e := range Simulate(g, 1) {
			got = append(got, e.ID)
		}
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("priorities %v: start order %v, want %v", tc.prio, got, tc.want)
		}
	}
}
