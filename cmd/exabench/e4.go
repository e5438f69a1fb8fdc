package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"exadla/internal/core"
	"exadla/internal/lapack"
	"exadla/internal/matgen"
	"exadla/internal/tile"
)

// runE4 reproduces the CAQR/TSQR comparison: QR of tall-skinny matrices by
// flat Householder (one long dependence chain) versus the TSQR reduction
// tree, over aspect ratios and block counts. TSQR is core.QRTree on a
// single tile column of ⌈m/blocks⌉ rows. The parallel benefit is shown by
// simulating the recorded TSQR DAG: its critical path is one leaf plus
// log₂(blocks) combines, versus the inherently serial flat panel.
func runE4(quick bool) {
	type cfg struct{ m, n int }
	cfgs := pick(quick,
		[]cfg{{20000, 16}, {50000, 32}},
		[]cfg{{20000, 16}, {50000, 32}, {100000, 32}, {100000, 64}})
	blockCounts := []int{4, 16, 64}

	tbl := newTable("m", "n", "blocks", "t_house(s)", "t_tsqr_seq(s)",
		"tsqr_critpath(s)", "sim_speedup@16", "max|ΔR|/|R|")
	for _, c := range cfgs {
		rng := rand.New(rand.NewSource(int64(c.m + c.n)))
		a := matgen.Dense[float64](rng, c.m, c.n)

		// Flat Householder QR.
		flat := append([]float64(nil), a...)
		tau := make([]float64, c.n)
		t0 := time.Now()
		lapack.Geqrf(c.m, c.n, flat, c.m, tau)
		tHouse := time.Since(t0).Seconds()

		for _, blocks := range blockCounts {
			ta := tile.FromColMajor(c.m, c.n, a, c.m, max(c.n, (c.m+blocks-1)/blocks))
			t0 = time.Now()
			g, _, err := record(core.OpQRTree, ta, false)
			tTSQR := time.Since(t0).Seconds()
			if err != nil {
				fmt.Println(err)
				continue
			}
			d := simulate(g, 16)

			// R agreement (up to sign).
			r := ta.Tile(0, 0)
			ldr := ta.TileRows(0)
			var maxDiff, maxR float64
			for j := 0; j < c.n; j++ {
				for i := 0; i <= j; i++ {
					d := math.Abs(math.Abs(r[i+j*ldr]) - math.Abs(flat[i+j*c.m]))
					if d > maxDiff {
						maxDiff = d
					}
					if v := math.Abs(flat[i+j*c.m]); v > maxR {
						maxR = v
					}
				}
			}
			tbl.add(c.m, c.n, ta.MT, tHouse, tTSQR, d.TInf, d.Speedup(), maxDiff/maxR)
		}
	}
	tbl.print()
	fmt.Println("\nexpected shape: identical R (≤1e-12); TSQR total work ≈ Householder work, but")
	fmt.Println("its critical path shrinks ~1/blocks (plus log-depth combines) where the flat")
	fmt.Println("panel cannot be decomposed at all — sim_speedup grows with blocks")
}
