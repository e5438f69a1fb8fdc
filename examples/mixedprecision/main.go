// Mixed precision: solve the same system with a full float64 factorization
// and with float32-factorize + float64-refine (the dsgesv scheme), showing
// that refinement recovers double-precision accuracy and how the iteration
// count responds to conditioning.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"exadla"
)

func main() {
	ctx := exadla.NewContext()
	defer ctx.Close()

	const n = 600
	rng := rand.New(rand.NewSource(7))

	for _, cond := range []float64{1e2, 1e5, 1e8} {
		a := exadla.RandomWithCond(rng, n, n, cond)
		xTrue := exadla.RandomGeneral(rng, n, 1)
		b, err := ctx.Multiply(a, xTrue)
		if err != nil {
			log.Fatal(err)
		}

		x64, err := ctx.Solve(a, b)
		if err != nil {
			log.Fatal(err)
		}
		xm, res, err := ctx.SolveMixed(a, b)
		if err != nil {
			log.Fatal(err)
		}

		outcome := fmt.Sprintf("converged in %d sweeps", res.Iterations)
		if res.FellBack {
			outcome = fmt.Sprintf("fell back to float64 after %d sweeps", res.Iterations)
		}
		fmt.Printf("cond=%.0e: %s\n", cond, outcome)
		fmt.Printf("  backward error: fp64 %.2e, mixed %.2e\n",
			exadla.Residual(a, x64, b), exadla.Residual(a, xm, b))
	}
	fmt.Println("\nmixed precision does the O(n³) factorization in float32 and recovers")
	fmt.Println("float64 accuracy with O(n²) refinement sweeps — until the matrix is so")
	fmt.Println("ill-conditioned that the float32 factors stop contracting.")
}
