package main

import (
	"fmt"
	"math/rand"
	"os"

	"exadla/internal/core"
	"exadla/internal/matgen"
	"exadla/internal/sched"
	"exadla/internal/tile"
	"exadla/internal/trace"
)

// runE2 reproduces the keynote's trace slide: per-worker Gantt charts of
// fork-join vs dataflow execution of one factorization, with idle-time
// percentages. Schedules are produced by the simulator from measured task
// costs so the worker count is independent of this host.
func runE2(quick bool) {
	// 16 tile columns keep the DAG wide enough that the P=16 comparison
	// reflects structure rather than recording noise.
	n := pick(quick, 512, 1536)
	nb := pick(quick, 64, 96)
	workerCounts := []int{4, 16}

	rng := rand.New(rand.NewSource(7))
	aD := matgen.DiagDomSPD[float64](rng, n)

	graphs := map[string]*sched.Graph{}
	for _, variant := range []string{"dataflow", "fork-join"} {
		g, _, err := record(core.OpCholesky, tile.FromColMajor(n, n, aD, n, nb), variant == "fork-join")
		if err != nil {
			fmt.Println(err)
			return
		}
		graphs[variant] = g
	}

	tbl := newTable("P", "variant", "sim_makespan(s)", "sim_busy(s)", "sim_utilization", "sim_idle%")
	for _, p := range workerCounts {
		for _, variant := range []string{"fork-join", "dataflow"} {
			d := simulate(graphs[variant], p)
			util := d.Speedup() / float64(p)
			tbl.add(p, variant, d.Makespan, d.T1, util, 100*(1-util))
		}
	}
	tbl.print()

	// Gantt charts at P=4.
	for _, variant := range []string{"fork-join", "dataflow"} {
		fmt.Printf("\nGantt (%s, P=4, n=%d, nb=%d) — '.' is idle:\n", variant, n, nb)
		log := trace.NewLog(sched.Simulate(graphs[variant], 4)...)
		if err := log.Gantt(os.Stdout, 100); err != nil {
			fmt.Println(err)
		}
	}
	fmt.Println("\nexpected shape: fork-join rows show idle gaps at every panel; dataflow rows stay dense")
}
