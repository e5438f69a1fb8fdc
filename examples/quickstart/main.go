// Quickstart: factor and solve a symmetric positive definite system with
// the tile Cholesky solver, then verify the backward error.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"exadla"
)

func main() {
	// A Context owns the worker pool; create once, reuse for many solves.
	ctx := exadla.NewContext(exadla.WithWorkers(4), exadla.WithTileSize(96))
	defer ctx.Close()

	const n = 1000
	rng := rand.New(rand.NewSource(42))

	// Build a random SPD system with a known solution.
	a := exadla.RandomSPD(rng, n)
	xTrue := exadla.RandomGeneral(rng, n, 1)
	b, err := ctx.Multiply(a, xTrue)
	if err != nil {
		log.Fatal(err)
	}

	// One-shot driver: tile Cholesky + forward/backward solves, all in one
	// dataflow graph.
	x, err := ctx.SolveSPD(a, b)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("solved %d×%d SPD system\n", n, n)
	fmt.Printf("backward error ‖b−Ax‖/((‖A‖‖x‖+‖b‖)) = %.2e\n", exadla.Residual(a, x, b))

	// Reusable factorization: factor once, solve many right-hand sides.
	f, err := ctx.Cholesky(a)
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		rhs := exadla.RandomGeneral(rng, n, 1)
		xi, err := f.Solve(rhs)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("rhs %d: backward error %.2e\n", i, exadla.Residual(a, xi, rhs))
	}
}
