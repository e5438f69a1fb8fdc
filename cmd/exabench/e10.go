package main

import (
	"fmt"
	"math/rand"

	"exadla/internal/core"
	"exadla/internal/dist"
	"exadla/internal/matgen"
	"exadla/internal/tile"
)

// runE10 quantifies the keynote's central rule — data movement, not flops,
// is the cost — by replaying recorded DAGs on simulated 2D block-cyclic
// process grids and counting words moved: tile Cholesky across grid sizes
// (words/P should shrink like 1/√P at fixed n), and flat vs tree QR on a
// 1D grid (the communication-avoiding trade).
func runE10(quick bool) {
	n := pick(quick, 512, 1024)
	nb := 64

	fmt.Println("— tile Cholesky on √P×√P grids —")
	rng := rand.New(rand.NewSource(3))
	aD := matgen.DiagDomSPD[float64](rng, n)
	a := tile.FromColMajor(n, n, aD, n, nb)
	g, _, err := record(core.OpCholesky, a, false)
	if err != nil {
		fmt.Println(err)
		return
	}
	tbl := newTable("P(grid)", "messages", "words", "words/P", "words/P·√P/n²", "remote_tasks%")
	for _, p := range []int{1, 2, 4, 8} {
		stats := dist.Count(g, p*p, dist.BlockCyclic(a, p, p))
		wpp := float64(stats.Words) / float64(p*p)
		normalized := wpp * float64(p) / float64(n*n)
		total := stats.LocalTasks + stats.RemoteTasks
		tbl.add(fmt.Sprintf("%d (%dx%d)", p*p, p, p), stats.Messages, stats.Words,
			wpp, normalized, 100*float64(stats.RemoteTasks)/float64(total))
	}
	tbl.print()
	fmt.Println("\nexpected shape: words/P shrinks as P grows; the normalized column")
	fmt.Println("(words·√P/(P·n²)) stays bounded — the O(n²/√P) per-process volume of a")
	fmt.Println("2D-distributed O(n³) factorization, the communication-optimal regime")

	fmt.Println("\n— flat vs tree QR panel on a 1D process column —")
	mt := pick(quick, 16, 32)
	m := mt * nb
	ncols := 2 * nb
	aD2 := matgen.Dense[float64](rng, m, ncols)
	tbl2 := newTable("tile_rows", "variant", "messages", "words", "comm_depth")
	for _, op := range []string{core.OpQR, core.OpQRTree} {
		a2 := tile.FromColMajor(m, ncols, aD2, m, nb)
		g2, f, err := record(op, a2, false)
		if err != nil {
			fmt.Println(err)
			return
		}
		places := []dist.Placement{
			dist.BlockCyclic(a2, mt, 1),
			dist.BlockCyclic(f.T, mt, 1),
		}
		if f.T2 != nil {
			places = append(places, dist.BlockCyclic(f.T2, mt, 1))
		}
		place := dist.Merge(places...)
		stats := dist.Count(g2, mt, place)
		tbl2.add(mt, variantName[op], stats.Messages, stats.Words, dist.CommDepth(g2, place))
	}
	tbl2.print()
	fmt.Println("\nexpected shape: total words are comparable (the volume is the panel data")
	fmt.Println("either way), but comm_depth — sequential message rounds on the critical")
	fmt.Println("path, the latency cost — drops from Θ(tile_rows) for the flat chain to")
	fmt.Println("Θ(log tile_rows) for the tree: the communication-avoiding win")
}
