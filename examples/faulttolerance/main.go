// Fault tolerance: factor an SPD matrix under the ABFT tile guard, silently
// corrupt a freshly factored tile mid-factorization the way a memory upset
// would, and watch the checksums the guard carries through the tile kernels
// detect, locate, and repair the damage before any later task reads it.
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"

	"exadla/internal/blas"
	"exadla/internal/core"
	"exadla/internal/ft"
	"exadla/internal/matgen"
	"exadla/internal/sched"
	"exadla/internal/tile"
	"exadla/internal/trace"
)

func main() {
	const n, nb, step = 400, 100, 1
	rng := rand.New(rand.NewSource(3))
	aD := matgen.DiagDomSPD[float64](rng, n)
	xTrue := matgen.Dense[float64](rng, n, 1)
	b := make([]float64, n)
	blas.Symv(blas.Lower, n, 1, aD, n, xTrue, 1, 0, b, 1)

	// Silent corruption of the diagonal tile that panel step 1 has just
	// factored (a high-order bit flip's worth of damage), between the
	// step's checksum snapshot and its verification.
	inj := ft.NewInjector(1)
	var stats ft.Stats
	var injected ft.Fault
	hook := func(k int, m *tile.Matrix[float64]) {
		if k == step {
			ld := m.TileRows(step)
			injected = inj.AddNoise(m.Tile(step, step), inj.RandomLowerIndex(ld), ld, 7.5)
			stats.Injected.Add(1)
		}
	}
	// A detection corrects the entry in place and fails the verification
	// task, which the runtime retries; the retry passes.
	r := sched.New(4, sched.WithRetry(3, 0), sched.WithFailureObserver(func(_ trace.Event, err error) {
		fmt.Printf("checksum scan: %v\n", err)
	}))
	defer r.Shutdown()
	a := tile.FromColMajor(n, n, aD, n, nb)
	f, err := core.Protect(r, core.OpCholesky, a, nil, &core.FTOptions{InjectHook: hook, Stats: &stats})
	if err != nil {
		log.Fatal(err)
	}
	row, col := step*nb+injected.Row, step*nb+injected.Col
	fmt.Printf("factored %d×%d SPD matrix under the ABFT guard, %d×%d tiles\n", n, n, nb, nb)
	fmt.Printf("injected Δ=%.3g at L(%d,%d); detected %d, corrected %d\n",
		injected.Delta, row, col, stats.Detected.Load(), stats.Corrected.Load())
	fmt.Printf("solve with the repaired factor: forward error %.2e\n", solveErr(r, f, b, xTrue))

	// The same corruption left in place produces a garbage solution.
	a.Tile(step, step)[injected.Row+injected.Col*nb] += injected.Delta
	fmt.Printf("solve with the corruption left in: forward error %.2e\n", solveErr(r, f, b, xTrue))
	fmt.Println("\nno checkpoint, no recomputation: the checksums ride through the same")
	fmt.Println("tile kernels as the factor, at O(n²) cost on an O(n³) computation.")
}

// solveErr solves A·x = b with the factor f and returns the forward error
// against xTrue.
func solveErr(s sched.Scheduler, f *core.Factors[float64], b, xTrue []float64) float64 {
	n := len(b)
	x := tile.FromColMajor(n, 1, b, n, f.A.NB)
	if err := core.Solve(s, f, x); err != nil {
		log.Fatal(err)
	}
	var d, nrm float64
	for i, v := range x.ToColMajor() {
		d = max(d, math.Abs(v-xTrue[i]))
		nrm = max(nrm, math.Abs(xTrue[i]))
	}
	return d / nrm
}
