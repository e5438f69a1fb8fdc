// Critical-path analysis tests: hand-built DAGs with known critical paths,
// the fork–join vs dataflow Cholesky comparison the paper's argument rests
// on, and the work/span sandwich property T∞ ≤ makespan ≤ T₁ on simulated
// greedy schedules.
package trace_test

import (
	"math"
	"math/rand"
	"testing"

	"exadla/internal/core"
	"exadla/internal/matgen"
	"exadla/internal/sched"
	"exadla/internal/tile"
	"exadla/internal/trace"
)

const sec = int64(1e9)

// span is a shorthand builder for test spans.
func span(id int, name string, worker int, deps []int, start, end int64) trace.Event {
	return trace.Event{ID: id, Name: name, Worker: worker, Attempt: 1,
		Deps: deps, Ready: start, Start: start, End: end}
}

func TestAnalyzeDAGChain(t *testing.T) {
	l := trace.NewLog()
	// a(1s) → b(2s) → c(3s), strictly sequential.
	l.TaskSpan(span(0, "a", 0, nil, 0, 1*sec))
	l.TaskSpan(span(1, "b", 0, []int{0}, 1*sec, 3*sec))
	l.TaskSpan(span(2, "c", 0, []int{1}, 3*sec, 6*sec))
	d := l.AnalyzeDAG()
	if d.Tasks != 3 || d.Attempts != 3 || d.Retries != 0 {
		t.Fatalf("tasks=%d attempts=%d retries=%d", d.Tasks, d.Attempts, d.Retries)
	}
	if math.Abs(d.T1-6) > 1e-9 || math.Abs(d.TInf-6) > 1e-9 {
		t.Errorf("T1=%v TInf=%v, want 6, 6", d.T1, d.TInf)
	}
	if d.CritTasks != 3 || len(d.CritPath) != 3 ||
		d.CritPath[0] != 0 || d.CritPath[1] != 1 || d.CritPath[2] != 2 {
		t.Errorf("critical path %v", d.CritPath)
	}
	if math.Abs(d.SpeedupBound(8)-1) > 1e-9 {
		t.Errorf("chain speedup bound %v, want 1", d.SpeedupBound(8))
	}
}

func TestAnalyzeDAGDiamond(t *testing.T) {
	l := trace.NewLog()
	// a(1s) → {b(2s), c(3s)} → d(1s): critical path a-c-d, 5s of 7s work.
	l.TaskSpan(span(0, "a", 0, nil, 0, 1*sec))
	l.TaskSpan(span(1, "b", 0, []int{0}, 1*sec, 3*sec))
	l.TaskSpan(span(2, "c", 1, []int{0}, 1*sec, 4*sec))
	l.TaskSpan(span(3, "d", 0, []int{1, 2}, 4*sec, 5*sec))
	d := l.AnalyzeDAG()
	if math.Abs(d.T1-7) > 1e-9 || math.Abs(d.TInf-5) > 1e-9 {
		t.Fatalf("T1=%v TInf=%v, want 7, 5", d.T1, d.TInf)
	}
	if len(d.CritPath) != 3 || d.CritPath[0] != 0 || d.CritPath[1] != 2 || d.CritPath[2] != 3 {
		t.Errorf("critical path %v, want [0 2 3]", d.CritPath)
	}
	if math.Abs(d.CritShare["c"]-0.6) > 1e-9 || math.Abs(d.CritShare["a"]-0.2) > 1e-9 {
		t.Errorf("critical-path share %v", d.CritShare)
	}
	if d.Workers != 2 {
		t.Errorf("workers %d, want 2", d.Workers)
	}
	if math.Abs(d.Makespan-5) > 1e-9 || math.Abs(d.Speedup()-7.0/5) > 1e-9 {
		t.Errorf("makespan=%v speedup=%v", d.Makespan, d.Speedup())
	}
	// Brent: T1/p + TInf.
	if math.Abs(d.BrentBound(2)-(3.5+5)) > 1e-9 {
		t.Errorf("Brent bound %v", d.BrentBound(2))
	}
}

func TestAnalyzeDAGRetriesStretchPaths(t *testing.T) {
	l := trace.NewLog()
	// Task 0 runs twice (first attempt retried): its weight is both
	// attempts, so the path through it stretches to 3s.
	l.TaskSpan(trace.Event{ID: 0, Name: "flaky", Worker: 0, Attempt: 1,
		Ready: 0, Start: 0, End: 1 * sec, Outcome: trace.OutcomeRetried, Err: "transient"})
	l.TaskSpan(trace.Event{ID: 0, Name: "flaky", Worker: 0, Attempt: 2,
		Ready: 1 * sec, Start: 1 * sec, End: 3 * sec, Outcome: trace.OutcomeOK})
	l.TaskSpan(span(1, "after", 0, []int{0}, 3*sec, 4*sec))
	d := l.AnalyzeDAG()
	if d.Tasks != 2 || d.Attempts != 3 || d.Retries != 1 {
		t.Fatalf("tasks=%d attempts=%d retries=%d", d.Tasks, d.Attempts, d.Retries)
	}
	if math.Abs(d.TInf-4) > 1e-9 || math.Abs(d.T1-4) > 1e-9 {
		t.Errorf("T1=%v TInf=%v, want 4, 4", d.T1, d.TInf)
	}
}

func TestAnalyzeDAGEdgelessSpans(t *testing.T) {
	l := trace.NewLog()
	l.TaskSpan(span(0, "a", 0, nil, 0, 2*sec))
	l.TaskSpan(span(1, "b", 1, nil, 0, 3*sec))
	d := l.AnalyzeDAG()
	// No edges recorded: tasks are independent, TInf is the longest task.
	if d.Tasks != 2 || math.Abs(d.TInf-3) > 1e-9 || math.Abs(d.T1-5) > 1e-9 {
		t.Errorf("tasks=%d T1=%v TInf=%v", d.Tasks, d.T1, d.TInf)
	}
}

// unitCosts gives every non-barrier node cost 1, making structural
// comparisons deterministic.
func unitCosts(g *sched.Graph) {
	for i := range g.Nodes {
		if !g.Nodes[i].Barrier {
			g.Nodes[i].Cost = 1
		}
	}
}

func TestDAGForkJoinVsDataflowCholesky(t *testing.T) {
	const n, nb = 8 * 16, 16 // 8×8 tiles at unit cost
	rng := rand.New(rand.NewSource(3))
	src := matgen.DiagDomSPD[float64](rng, n)

	recDF := sched.NewModelRecorder()
	if err := core.Cholesky(recDF, tile.FromColMajor(n, n, src, n, nb)); err != nil {
		t.Fatal(err)
	}
	recFJ := sched.NewModelRecorder()
	if _, err := core.Factor(recFJ, core.OpCholesky, tile.FromColMajor(n, n, src, n, nb), nil, true); err != nil {
		t.Fatal(err)
	}
	gDF, gFJ := recDF.Graph(), recFJ.Graph()
	unitCosts(gDF)
	unitCosts(gFJ)

	const workers = 8
	dDF := trace.NewLog(sched.Simulate(gDF, workers)...).AnalyzeDAG()
	dFJ := trace.NewLog(sched.Simulate(gFJ, workers)...).AnalyzeDAG()

	// Same work, and at unit cost even the same critical path — the
	// fork–join penalty is that barriers forbid overlapping phases, so its
	// schedule lands further from the shared DAG-limited bound.
	if math.Abs(dDF.T1-dFJ.T1) > 1e-9 {
		t.Fatalf("T1 differs: dataflow %v, fork-join %v", dDF.T1, dFJ.T1)
	}
	if dFJ.TInf < dDF.TInf {
		t.Errorf("fork-join TInf %v shorter than dataflow %v", dFJ.TInf, dDF.TInf)
	}
	if dFJ.Makespan <= dDF.Makespan {
		t.Errorf("fork-join makespan %v not longer than dataflow %v", dFJ.Makespan, dDF.Makespan)
	}
	fracDF := dDF.Speedup() / dDF.SpeedupBound(workers)
	fracFJ := dFJ.Speedup() / dFJ.SpeedupBound(workers)
	if fracDF <= fracFJ {
		t.Errorf("dataflow achieves %.2f of its DAG-limited speedup, fork-join %.2f — want dataflow higher",
			fracDF, fracFJ)
	}
	// At unit cost the dataflow critical path is the potrf→trsm→syrk
	// spine through all 8 tile columns: 3·8−2 tasks.
	if math.Abs(dDF.TInf-22) > 1e-9 {
		t.Errorf("AnalyzeDAG TInf %v, want the 22-task spine", dDF.TInf)
	}
	// potrf is the sequential spine of the tiled Cholesky: it must hold a
	// substantial share of the dataflow critical path.
	if dDF.CritShare["potrf"] <= 0 {
		t.Errorf("potrf absent from critical path share: %v", dDF.CritShare)
	}
}

// TestDAGSandwichProperty checks T∞ ≤ makespan ≤ T₁ for greedy simulated
// schedules of random DAGs at several worker counts.
func TestDAGSandwichProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		g := &sched.Graph{}
		nNodes := 5 + rng.Intn(40)
		for i := 0; i < nNodes; i++ {
			node := sched.GraphNode{Name: "k", Cost: 0.1 + rng.Float64()}
			for d := 0; d < i; d++ {
				if rng.Float64() < 0.15 {
					node.Deps = append(node.Deps, d)
				}
			}
			g.Nodes = append(g.Nodes, node)
		}
		for _, workers := range []int{1, 2, 7} {
			events := sched.Simulate(g, workers)
			d := trace.NewLog(events...).AnalyzeDAG()
			const eps = 1e-9
			if d.TInf > d.Makespan+eps {
				t.Fatalf("trial %d p=%d: TInf %v > makespan %v", trial, workers, d.TInf, d.Makespan)
			}
			if d.Makespan > d.T1+eps {
				t.Fatalf("trial %d p=%d: makespan %v > T1 %v", trial, workers, d.Makespan, d.T1)
			}
			var last int64
			for _, e := range events {
				last = max(last, e.End)
			}
			if math.Abs(d.Makespan-float64(last)/1e9) > 1e-6 {
				t.Fatalf("trial %d p=%d: DAG makespan %v != simulated %v", trial, workers, d.Makespan, float64(last)/1e9)
			}
			// Brent's theorem: the greedy schedule beats T1/p + TInf.
			if d.Makespan > d.BrentBound(workers)+eps {
				t.Fatalf("trial %d p=%d: makespan %v above Brent bound %v",
					trial, workers, d.Makespan, d.BrentBound(workers))
			}
		}
	}
}
