// Precision ladder: the same linear system solved at three factorization
// precisions — emulated fp16 (tensor-core model), fp32, and fp64 — with
// iterative refinement recovering double-precision accuracy wherever the
// low-precision factors still contract.
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

	const n = 500
	rng := rand.New(rand.NewSource(11))

	fmt.Printf("%-8s %-10s %-7s %-14s %s\n", "cond", "scheme", "sweeps", "outcome", "backward error")
	for _, cond := range []float64{1e2, 1e4, 1e6} {
		a := exadla.RandomWithCond(rng, n, n, cond)
		xTrue := exadla.RandomGeneral(rng, n, 1)
		b, err := ctx.Multiply(a, xTrue)
		if err != nil {
			log.Fatal(err)
		}

		type scheme struct {
			name  string
			solve func() (*exadla.Matrix, exadla.MixedResult, error)
		}
		schemes := []scheme{
			{"fp16+IR", func() (*exadla.Matrix, exadla.MixedResult, error) { return ctx.SolveMixedHalf(a, b) }},
			{"fp32+IR", func() (*exadla.Matrix, exadla.MixedResult, error) { return ctx.SolveMixed(a, b) }},
			{"fp64", func() (*exadla.Matrix, exadla.MixedResult, error) {
				x, err := ctx.Solve(a, b)
				return x, exadla.MixedResult{Converged: true}, err
			}},
		}
		for _, s := range schemes {
			x, res, err := s.solve()
			if err != nil {
				log.Fatal(err)
			}
			outcome := "converged"
			if res.FellBack {
				outcome = "fp64 fallback"
			} else if !res.Converged {
				outcome = "stalled"
			}
			fmt.Printf("%-8.0e %-10s %-7d %-14s %.2e\n",
				cond, s.name, res.Iterations, outcome, exadla.Residual(a, x, b))
		}
	}
	fmt.Println("\neach precision rung trades factorization cost against the conditioning")
	fmt.Println("range it can refine: fp16 dies near cond 1e3-1e4, fp32 near 1e7.")
}
