package main

import (
	"fmt"
	"math/rand"

	"exadla/internal/core"
	"exadla/internal/matgen"
	"exadla/internal/sched"
	"exadla/internal/tile"
)

// runA2 disables the priority policy (panel > solve > update, earlier steps
// first) and measures the simulated makespan penalty — the ablation for the
// scheduler's critical-path hinting.
func runA2(quick bool) {
	n := pick(quick, 512, 1536)
	nb := pick(quick, 64, 96)
	rng := rand.New(rand.NewSource(13))
	aD := matgen.DiagDomSPD[float64](rng, n)

	g, _, err := record(core.OpCholesky, tile.FromColMajor(n, n, aD, n, nb), false)
	if err != nil {
		fmt.Println(err)
		return
	}
	// Ablated variants: FIFO (priorities zeroed; ties break on submission
	// order) and inverted (trailing updates outrank the critical path).
	clone := func(mod func(i int, n *sched.GraphNode)) *sched.Graph {
		c := &sched.Graph{Nodes: append([]sched.GraphNode(nil), g.Nodes...)}
		for i := range c.Nodes {
			mod(i, &c.Nodes[i])
		}
		return c
	}
	fifo := clone(func(_ int, n *sched.GraphNode) { n.Priority = 0 })
	inverted := clone(func(_ int, n *sched.GraphNode) { n.Priority = -n.Priority })

	tbl := newTable("P", "sim_makespan_prio(s)", "sim_makespan_fifo(s)", "fifo_penalty%",
		"sim_makespan_inverted(s)", "inverted_penalty%")
	for _, p := range []int{2, 4, 8, 16, 32} {
		withPrio := simulate(g, p).Makespan
		noFifo := simulate(fifo, p).Makespan
		inv := simulate(inverted, p).Makespan
		tbl.add(p, withPrio,
			noFifo, 100*(noFifo-withPrio)/withPrio,
			inv, 100*(inv-withPrio)/withPrio)
	}
	tbl.print()
	fmt.Println("\nfinding: for the tile Cholesky DAG even adversarial ordering costs only a")
	fmt.Println("few percent — submission order already approximates the critical path and")
	fmt.Println("greedy list scheduling absorbs the rest. The dataflow structure, not the")
	fmt.Println("priority hints, carries the speedup (contrast with the barrier ablation in E1)")
}

// variantName names the tile-QR elimination orders as A3 and E10 print
// them.
var variantName = map[string]string{core.OpQR: "flat", core.OpQRTree: "tree"}

// runA3 compares the flat and tree tile-QR elimination orders on tall tile
// grids: same R, different panel critical path.
func runA3(quick bool) {
	nb := 64
	n := 2 * nb // two tile columns
	rowsList := pick(quick, []int{4, 16}, []int{4, 8, 16, 32})

	tbl := newTable("tile_rows", "variant", "tasks", "work(s)", "critpath(s)", "sim_speedup@32")
	for _, mt := range rowsList {
		m := mt * nb
		rng := rand.New(rand.NewSource(int64(mt)))
		aD := matgen.Dense[float64](rng, m, n)
		for _, op := range []string{core.OpQR, core.OpQRTree} {
			g, _, err := record(op, tile.FromColMajor(m, n, aD, m, nb), false)
			if err != nil {
				fmt.Println(err)
				return
			}
			d := simulate(g, 32)
			tbl.add(mt, variantName[op], d.Tasks, d.T1, d.TInf, d.Speedup())
		}
	}
	tbl.print()
	fmt.Println("\nexpected shape: equal R (tested in internal/core); tree critical path grows")
	fmt.Println("like log(tile_rows) instead of linearly, so its simulated speedup keeps")
	fmt.Println("climbing on tall grids where the flat chain saturates")
}
