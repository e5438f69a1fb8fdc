package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"exadla/internal/blas"
	"exadla/internal/lapack"
	"exadla/internal/matgen"
	"exadla/internal/mixed"
)

// runE3 reproduces the dsgesv plot: mixed-precision LU with iterative
// refinement versus a full float64 solve, across sizes and condition
// numbers — time ratio, refinement sweeps, and delivered accuracy.
func runE3(quick bool) {
	sizes := pick(quick, []int{256, 512}, []int{256, 512, 1024})
	conds := []float64{1e1, 1e4, 1e6, 1e9}

	tbl := newTable("n", "cond", "t_fp64(s)", "t_mixed(s)", "speedup",
		"iters", "converged", "fwd_err_mixed", "fwd_err_fp32")
	for _, n := range sizes {
		for _, cond := range conds {
			rng := rand.New(rand.NewSource(int64(n) + int64(cond)))
			a := matgen.WithCond[float64](rng, n, n, cond)
			xTrue := matgen.Dense[float64](rng, n, 1)
			b := make([]float64, n)
			blas.Gemv(blas.NoTrans, n, n, 1, a, n, xTrue, 1, 0, b, 1)

			// Full float64 solve.
			a64 := append([]float64(nil), a...)
			x64 := append([]float64(nil), b...)
			ipiv := make([]int, n)
			t0 := time.Now()
			if err := lapack.Gesv(n, 1, a64, n, ipiv, x64, n); err != nil {
				fmt.Printf("n=%d cond=%.0e: fp64 solve failed: %v\n", n, cond, err)
				continue
			}
			tFP64 := time.Since(t0).Seconds()

			// Mixed precision.
			xm := make([]float64, n)
			t0 = time.Now()
			res, err := mixed.SolveLU(n, a, n, b, xm)
			tMixed := time.Since(t0).Seconds()
			if err != nil {
				fmt.Printf("n=%d cond=%.0e: mixed solve failed: %v\n", n, cond, err)
				continue
			}

			// Pure float32 for the accuracy contrast.
			a32 := make([]float32, n*n)
			b32 := make([]float32, n)
			for i := range a {
				a32[i] = float32(a[i])
			}
			for i := range b {
				b32[i] = float32(b[i])
			}
			x32 := make([]float64, n)
			if lapack.Getrf(n, n, a32, n, ipiv) == nil {
				lapack.Getrs(blas.NoTrans, n, 1, a32, n, ipiv, b32, n)
				for i := range b32 {
					x32[i] = float64(b32[i])
				}
			}

			conv := "yes"
			if res.FellBack {
				conv = "fallback"
			} else if !res.Converged {
				conv = "no"
			}
			tbl.add(n, fmt.Sprintf("%.0e", cond), tFP64, tMixed, tFP64/tMixed,
				res.Iterations, conv, fwdErr(xm, xTrue), fwdErr(x32, xTrue))
		}
	}
	tbl.print()
	fmt.Println("\nexpected shape: speedup >1 and flat iters at low cond, growing with n as the")
	fmt.Println("O(n³) float32 factorization (AVX2+FMA 16x4 kernel, twice the float64 lanes)")
	fmt.Println("outweighs the O(n²) sweeps; iters grow and the advantage decays toward")
	fmt.Println("cond≈1/eps32≈1e7, with fallback beyond; mixed fwd_err tracks fp64, fp32")
	fmt.Println("fwd_err is ~1e7x worse")
}

func fwdErr(x, xTrue []float64) float64 {
	var d, nrm float64
	for i := range x {
		if v := math.Abs(x[i] - xTrue[i]); v > d {
			d = v
		}
		if v := math.Abs(xTrue[i]); v > nrm {
			nrm = v
		}
	}
	if nrm == 0 {
		return d
	}
	return d / nrm
}
