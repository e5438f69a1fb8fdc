package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"exadla"
	"exadla/internal/blas"
	"exadla/internal/lapack"
	"exadla/internal/matgen"
)

// runE3 reproduces the dsgesv plot: mixed-precision LU with iterative
// refinement (Context.SolveMixed) versus the float64 tile solve
// (Context.Solve) on one shared Context, across sizes and condition
// numbers — time ratio (medians of 5 calls), refinement sweeps, and
// delivered accuracy, against a pure float32 solve's.
func runE3(quick bool) {
	sizes := pick(quick, []int{256, 512}, []int{256, 512, 1024})
	conds := []float64{1e1, 1e4, 1e6, 1e9}
	ctx := exadla.NewContext()
	defer ctx.Close()

	tbl := newTable("n", "cond", "t_fp64(s)", "t_mixed(s)", "speedup",
		"iters", "converged", "fwd_err_mixed", "fwd_err_fp32")
	for _, n := range sizes {
		for _, cond := range conds {
			rng := rand.New(rand.NewSource(int64(n) + int64(cond)))
			a := matgen.WithCond[float64](rng, n, n, cond)
			xTrue := matgen.Dense[float64](rng, n, 1)
			b := make([]float64, n)
			blas.Gemv(blas.NoTrans, n, n, 1, a, n, xTrue, 1, 0, b, 1)

			am, bm := exadla.FromSlice(n, n, a), exadla.FromSlice(n, 1, b)
			tFP64, err := medianSeconds(5, func() error {
				_, err := ctx.Solve(am, bm)
				return err
			})
			if err != nil {
				fmt.Printf("n=%d cond=%.0e: fp64 solve failed: %v\n", n, cond, err)
				continue
			}
			var xm *exadla.Matrix
			var res exadla.MixedResult
			tMixed, err := medianSeconds(5, func() (err error) {
				xm, res, err = ctx.SolveMixed(am, bm)
				return err
			})
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
			ipiv := make([]int, n)
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
				res.Iterations, conv, fwdErr(xm.Data(), xTrue), fwdErr(x32, xTrue))
		}
	}
	tbl.print()
	fmt.Println("\nexpected shape: speedup >1 and flat iters at low cond, growing with n as the")
	fmt.Println("O(n³) float32 factorization (AVX2+FMA 16x4 kernel, twice the float64 lanes)")
	fmt.Println("outweighs the O(n²) sweeps; iters grow and the advantage decays toward")
	fmt.Println("cond≈1/eps32≈1e7, with fallback beyond; mixed fwd_err tracks fp64, fp32")
	fmt.Println("fwd_err is ~1e7x worse")
}

// medianSeconds runs f reps times and returns the median wall time in
// seconds, or f's first error.
func medianSeconds(reps int, f func() error) (float64, error) {
	ts := make([]float64, reps)
	for i := range ts {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ts[i] = time.Since(t0).Seconds()
	}
	sort.Float64s(ts)
	return ts[reps/2], nil
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
