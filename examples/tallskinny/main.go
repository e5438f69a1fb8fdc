// Tall-skinny least squares three ways: flat tile QR, communication-avoiding
// TSQR (the tree-order tile QR on a single tile column), and randomized
// sketch-to-precondition — all solving the same overdetermined system to
// the same accuracy with very different communication and synchronization
// profiles.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"exadla"
)

func main() {
	ctx := exadla.NewContext()
	defer ctx.Close()

	const m, n = 60000, 48
	rng := rand.New(rand.NewSource(5))
	a := exadla.RandomWithCond(rng, m, n, 1e4)
	xTrue := exadla.RandomGeneral(rng, n, 1)
	b, err := ctx.Multiply(a, xTrue)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("min‖Ax−b‖ with A %d×%d (cond 1e4)\n\n", m, n)

	t0 := time.Now()
	xQR, err := ctx.LeastSquares(a, b)
	if err != nil {
		log.Fatal(err)
	}
	report("tile QR", time.Since(t0), xQR, xTrue)

	t0 = time.Now()
	xTSQR, err := ctx.TSQRLeastSquares(a, b, 16)
	if err != nil {
		log.Fatal(err)
	}
	report("TSQR (16 blocks)", time.Since(t0), xTSQR, xTrue)

	t0 = time.Now()
	xRand, err := ctx.RandomizedLeastSquares(rng, a, b)
	if err != nil {
		log.Fatal(err)
	}
	report("randomized (sketch+LSQR)", time.Since(t0), xRand, xTrue)

	fmt.Println("\nTSQR factors the row blocks (one tile each) independently and merges the R")
	fmt.Println("factors up a log-depth tree: one reduction instead of a chain per panel.")
}

func report(name string, d time.Duration, x, xTrue *exadla.Matrix) {
	var maxErr float64
	n, _ := xTrue.Dims()
	for i := 0; i < n; i++ {
		if v := abs(x.At(i, 0) - xTrue.At(i, 0)); v > maxErr {
			maxErr = v
		}
	}
	fmt.Printf("%-26s %8.3fs   max|x−x*| = %.2e\n", name, d.Seconds(), maxErr)
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
