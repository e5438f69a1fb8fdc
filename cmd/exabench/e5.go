package main

import (
	"fmt"
	"math/rand"

	"exadla/internal/autotune"
	"exadla/internal/core"
	"exadla/internal/matgen"
)

// runE5 reproduces the self-adapting-software argument: factorization time
// as a function of tile size (the classic U-shaped curve), and the
// autotuner's pick versus the sweep minimum.
func runE5(quick bool) {
	n := pick(quick, 512, 1024)
	candidates := pick(quick,
		[]int{32, 64, 128, 256},
		[]int{16, 32, 48, 64, 96, 128, 192, 256, 384})
	reps := pick(quick, 1, 3)

	rng := rand.New(rand.NewSource(11))
	aD := matgen.DiagDomSPD[float64](rng, n)

	res := autotune.TileSweep(core.OpCholesky, n, aD, 1, candidates, reps)

	tbl := newTable("nb", "t_cholesky(s)", "vs_best", "note")
	var best float64
	for _, m := range res.Table {
		if m.Param == res.Best {
			best = m.Seconds
		}
	}
	for _, m := range res.Table {
		note := ""
		if m.Pruned {
			note = "pruned"
		}
		if m.Param == res.Best {
			note = "← autotuner pick"
		}
		tbl.add(m.Param, m.Seconds, m.Seconds/best, note)
	}
	tbl.print()

	fmt.Printf("\nautotuner pick for %s: nb=%d (%.3fs)\n",
		autotune.Key("cholesky", n, 1), res.Best, best)
	fmt.Println("\nexpected shape: U-shaped curve (panel-latency bound at small nb, parallelism/cache")
	fmt.Println("bound at large nb); autotuner pick equals the sweep minimum by construction")
}
