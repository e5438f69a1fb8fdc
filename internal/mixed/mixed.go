// Package mixed implements mixed-precision iterative refinement solvers —
// the library's analogue of LAPACK's dsgesv/dsposv and one of the keynote's
// headline "new rules": do the O(n³) factorization in fast low precision,
// then recover full double-precision accuracy with cheap O(n²) refinement
// sweeps, falling back to a full double-precision solve when the matrix is
// too ill-conditioned for the low-precision factors to act as a contraction.
package mixed

import (
	"errors"
	"math"

	"exadla/internal/blas"
	"exadla/internal/lapack"
)

// Result reports how a mixed-precision solve converged.
type Result struct {
	// Iterations is the number of refinement sweeps performed.
	Iterations int
	// Converged is true if the forward-error criterion was met in low
	// precision; false means the solver fell back to full float64.
	Converged bool
	// FellBack is true if the float64 fallback path produced the answer.
	FellBack bool
	// ResidualNorm is the final ∞-norm of b − A·x.
	ResidualNorm float64
}

// MaxIterations bounds the refinement sweeps before declaring failure, the
// same limit (30) reference dsgesv uses.
const MaxIterations = 30

// ErrSingular is returned when both the float32 and the float64
// factorizations encounter an exactly singular pivot.
var ErrSingular = errors.New("mixed: matrix is singular")

// SolveLU solves A·x = b (A n×n column-major, untouched) by factorizing a
// float32 copy of A with partial-pivoting LU and refining in float64.
// x must have length n.
func SolveLU(n int, a []float64, lda int, b, x []float64) (Result, error) {
	// Factor in float32.
	a32 := make([]float32, n*n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			a32[i+j*n] = float32(a[i+j*lda])
		}
	}
	ipiv := make([]int, n)
	factErr := lapack.Getrf(n, n, a32, n, ipiv)
	residual := gemvResidual(n, a, lda, b)
	solve32 := func(r []float64, d []float64) {
		r32 := make([]float32, n)
		for i, v := range r {
			r32[i] = float32(v)
		}
		lapack.Getrs(blas.NoTrans, n, 1, a32, n, ipiv, r32, n)
		for i, v := range r32 {
			d[i] = float64(v)
		}
	}
	fallback := func() (Result, error) {
		a64 := make([]float64, n*n)
		lapack.Lacpy(lapack.General, n, n, a, lda, a64, n)
		copy(x, b[:n])
		ipiv64 := make([]int, n)
		if err := lapack.Gesv(n, 1, a64, n, ipiv64, x, n); err != nil {
			return Result{FellBack: true}, ErrSingular
		}
		return Result{FellBack: true, ResidualNorm: residualNorm(n, x, residual)}, nil
	}
	if factErr != nil {
		return fallback()
	}
	return refine(n, b, x, lapack.Lange(lapack.InfNorm, n, n, a, lda), residual, solve32, fallback)
}

// SolveCholesky solves the SPD system A·x = b by factorizing a float32 copy
// with Cholesky (lower) and refining in float64. Only the lower triangle of
// A is referenced.
func SolveCholesky(n int, a []float64, lda int, b, x []float64) (Result, error) {
	a32 := make([]float32, n*n)
	for j := 0; j < n; j++ {
		for i := j; i < n; i++ {
			a32[i+j*n] = float32(a[i+j*lda])
		}
	}
	factErr := lapack.Potrf(blas.Lower, n, a32, n)
	residual := func(x, r []float64) {
		copy(r, b[:n])
		blas.Symv(blas.Lower, n, -1, a, lda, x, 1, 1, r, 1)
	}
	solve32 := func(r []float64, d []float64) {
		r32 := make([]float32, n)
		for i, v := range r {
			r32[i] = float32(v)
		}
		lapack.Potrs(blas.Lower, n, 1, a32, n, r32, n)
		for i, v := range r32 {
			d[i] = float64(v)
		}
	}
	fallback := func() (Result, error) {
		a64 := make([]float64, n*n)
		lapack.Lacpy(blas.Lower, n, n, a, lda, a64, n)
		copy(x, b[:n])
		if err := lapack.Posv(blas.Lower, n, 1, a64, n, x, n); err != nil {
			return Result{FellBack: true}, err
		}
		return Result{FellBack: true, ResidualNorm: residualNorm(n, x, residual)}, nil
	}
	if factErr != nil {
		return fallback()
	}
	return refine(n, b, x, lapack.Lansy(lapack.InfNorm, blas.Lower, n, a, lda), residual, solve32, fallback)
}

// refine runs the double-precision refinement loop around a low-precision
// solve of A·x = b: residual(x, r) stores b − A·x in r, anorm is ‖A‖∞,
// and solve32 maps a residual to a correction. The iterate has converged
// when ‖r‖ ≤ ‖x‖·‖A‖·ε·√n (dsgesv's test). A non-finite residual or
// iterate means the low-precision factors diverged, and the float64
// fallback answers instead — as it does after MaxIterations sweeps.
func refine(n int, b, x []float64, anorm float64, residual func(x, r []float64), solve32 func(r, d []float64), fallback func() (Result, error)) (Result, error) {
	eps := lapack.Epsilon[float64]()
	sqrtN := math.Sqrt(float64(n))

	solve32(b, x)
	r := make([]float64, n)
	d := make([]float64, n)
	var res Result
	for it := 1; it <= MaxIterations; it++ {
		res.Iterations = it
		residual(x, r)
		rnorm, xnorm := infNorm(r), infNorm(x)
		res.ResidualNorm = rnorm
		if m := max(rnorm, xnorm); math.IsInf(m, 1) || math.IsNaN(m) {
			break
		}
		if rnorm <= xnorm*anorm*eps*sqrtN {
			res.Converged = true
			return res, nil
		}
		solve32(r, d)
		blas.Axpy(n, 1, d, 1, x, 1)
	}
	fres, err := fallback()
	fres.Iterations = res.Iterations
	return fres, err
}

// gemvResidual returns the residual function r ← b − A·x of a general A.
func gemvResidual(n int, a []float64, lda int, b []float64) func(x, r []float64) {
	return func(x, r []float64) {
		copy(r, b[:n])
		blas.Gemv(blas.NoTrans, n, n, -1, a, lda, x, 1, 1, r, 1)
	}
}

// residualNorm returns ‖b − A·x‖∞ for the residual function of A and b.
func residualNorm(n int, x []float64, residual func(x, r []float64)) float64 {
	r := make([]float64, n)
	residual(x, r)
	return infNorm(r)
}

// infNorm returns max |vᵢ|, or NaN if any entry is NaN.
func infNorm(v []float64) float64 {
	var m float64
	for _, x := range v {
		m = max(m, math.Abs(x)) // max propagates NaN
	}
	return m
}
