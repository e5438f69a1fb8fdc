package main

import (
	"fmt"
	"math/rand"

	"exadla/internal/core"
	"exadla/internal/matgen"
	"exadla/internal/tile"
)

// runE1 reproduces the keynote's headline plot: tile Cholesky scheduled as
// a dataflow DAG versus block-synchronous fork-join, scaled over worker
// counts. Task costs are measured on this host by a sequential recording
// pass; the scaling is replayed by the simulator (see DESIGN.md, hardware
// substitutions).
func runE1(quick bool) {
	sizes := pick(quick, []int{256, 512}, []int{256, 512, 1024, 1536})
	nb := pick(quick, 64, 96)
	workers := []int{1, 2, 4, 8, 16, 32, 64}

	fmt.Printf("tile size nb=%d; times in seconds (simulated from measured task costs)\n\n", nb)
	tbl := newTable("n", "variant", "tasks", "work(s)", "critpath(s)",
		"P=1", "P=2", "P=4", "P=8", "P=16", "P=32", "P=64", "speedup@64")
	for _, n := range sizes {
		rng := rand.New(rand.NewSource(int64(n)))
		aD := matgen.DiagDomSPD[float64](rng, n)
		for _, variant := range []string{"dataflow", "fork-join"} {
			g, _, err := record(core.OpCholesky, tile.FromColMajor(n, n, aD, n, nb), variant == "fork-join")
			if err != nil {
				fmt.Printf("n=%d %s: %v\n", n, variant, err)
				continue
			}
			var cells []any
			var p1, p64 float64
			for _, w := range workers {
				d := simulate(g, w)
				if w == 1 {
					cells = []any{n, variant, d.Tasks, d.T1, d.TInf}
					p1 = d.Makespan
				}
				if w == 64 {
					p64 = d.Makespan
				}
				cells = append(cells, d.Makespan)
			}
			cells = append(cells, p1/p64)
			tbl.add(cells...)
		}
	}
	tbl.print()
	fmt.Println("\nexpected shape: dataflow ≥ fork-join everywhere; gap grows with P")
}
