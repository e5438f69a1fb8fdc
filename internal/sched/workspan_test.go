package sched_test

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

// TestSimulateWorkSpanIndependentOfWorkers pins the simulator's integer
// clock: each node's cost is rounded to the nanosecond once, so the work,
// span and task count of a simulated schedule are the same at every worker
// count, and the work is exactly the sum of the rounded costs.
func TestSimulateWorkSpanIndependentOfWorkers(t *testing.T) {
	const n, nb = 512, 64
	rng := rand.New(rand.NewSource(5))
	spd := matgen.DiagDomSPD[float64](rng, n)
	dense := matgen.Dense[float64](rng, n, n)
	for _, op := range []string{core.OpCholesky, core.OpLU, core.OpQR} {
		src := dense
		if op == core.OpCholesky {
			src = spd
		}
		for _, forkJoin := range []bool{false, true} {
			rec := sched.NewRecorder()
			if _, err := core.Factor(rec, op, tile.FromColMajor(n, n, src, n, nb), nil, forkJoin); err != nil {
				t.Fatal(err)
			}
			g := rec.Graph()
			var work float64
			for _, node := range g.Nodes {
				work += float64(int64(math.Round(node.Cost*1e9))) / 1e9
			}
			var first trace.DAGStats
			for _, p := range []int{1, 2, 4, 32} {
				d := trace.NewLog(sched.Simulate(g, p)...).AnalyzeDAG()
				if p == 1 {
					first = d
					if d.T1 != work {
						t.Errorf("%s forkJoin=%v: T1 %v, want the summed rounded costs %v", op, forkJoin, d.T1, work)
					}
					continue
				}
				if d.T1 != first.T1 || d.TInf != first.TInf || d.Tasks != first.Tasks {
					t.Errorf("%s forkJoin=%v p=%d: T1 %v TInf %v tasks %d, want %v %v %d as at p=1",
						op, forkJoin, p, d.T1, d.TInf, d.Tasks, first.T1, first.TInf, first.Tasks)
				}
			}
		}
	}
}
