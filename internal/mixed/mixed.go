// Package mixed implements mixed-precision iterative refinement solvers —
// the library's analogue of LAPACK's dsgesv/dsposv and one of the keynote's
// headline "new rules": do the O(n³) factorization in fast low precision,
// then recover full double-precision accuracy with cheap O(n²) refinement
// sweeps, falling back to a full double-precision solve when the matrix is
// too ill-conditioned for the low-precision factors to act as a contraction.
// The factorization and every solve are core's tile walk at float32 or
// float64; this package owns only the rounding and the refinement loop.
package mixed

import (
	"errors"
	"math"
	"runtime"

	"exadla/internal/blas"
	"exadla/internal/core"
	"exadla/internal/half"
	"exadla/internal/lapack"
	"exadla/internal/sched"
	"exadla/internal/tile"
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

// Solve solves A·x = b (A n×n column-major, untouched; x of length n) with
// op's factor — core.OpLU, or core.OpCholesky for an SPD A, of which only
// the lower triangle is referenced — computed by the tile walk on s at tile
// size nb in float32, and refined in float64. When the float32
// factorization fails or the refinement does not converge, the float64
// walk solves the system instead; its error is ErrSingular for a singular
// LU and *lapack.NotPositiveDefiniteError for Cholesky. A correction solve
// that fails (a task failure the scheduler did not retry away) reads as a
// diverged one.
//
// With fp16 set it is the three-precision scheme modeled on the
// fp16/tensor-core refinement work that followed the keynote: A, scaled by
// its largest entry so the factorization stays inside fp16's tiny exponent
// range, is rounded to half precision, and so is every factor tile (fp16
// storage, fp32 compute); correction solves run in float32. Because
// ε₁₆ = 2⁻¹⁰, it contracts only for condition numbers up to ~10³ and needs
// more sweeps than the float32 scheme.
func Solve(s sched.Scheduler, nb int, op string, fp16 bool, n int, a []float64, lda int, b, x []float64) (Result, error) {
	lower := op == core.OpCholesky
	residual := gemvResidual(n, a, lda, b)
	if lower {
		residual = func(x, r []float64) {
			copy(r, b[:n])
			blas.Symv(blas.Lower, n, -1, a, lda, x, 1, 1, r, 1)
		}
	}
	fallback := func() (Result, error) {
		_, x64, err := core.Run(s, nil, op, tile.Deferred(n, n, a, lda, nb), tile.Deferred(n, 1, b, n, nb), core.ThenSolve, nil)
		if errors.As(err, new(*lapack.SingularError)) {
			err = ErrSingular
		}
		if err != nil {
			return Result{FellBack: true}, err
		}
		copy(x, x64)
		r := make([]float64, n)
		residual(x, r)
		return Result{FellBack: true, ResidualNorm: infNorm(r)}, nil
	}

	// Round A (its lower triangle for Cholesky) into float32 — scaled and
	// through fp16 on the half rung — and factor it.
	scale := 1.0
	if fp16 {
		if amax := lapack.Lange(lapack.MaxAbs, n, n, a, lda); amax > 0 {
			scale = 1 / amax
		}
	}
	a32 := make([]float32, n*n)
	for j := range n {
		lo := 0
		if lower {
			lo = j
		}
		col, col32 := a[lo+j*lda:n+j*lda], a32[lo+j*n:(j+1)*n]
		if fp16 {
			for i, v := range col {
				col32[i] = half.FromFloat64(v * scale).Float32()
			}
		} else {
			for i, v := range col {
				col32[i] = float32(v)
			}
		}
	}
	f, err := core.Factor(s, op, tile.Deferred(n, n, a32, n, nb), nil, false)
	if err != nil {
		return fallback()
	}
	if fp16 {
		for t := range f.A.MT * f.A.NT {
			half.RoundSlice32(f.A.Tile(t%f.A.MT, t/f.A.MT))
		}
	}

	r32 := make([]float32, n)
	solve32 := func(r, d []float64) {
		for i, v := range r {
			r32[i] = float32(v * scale) // fold in the matrix scaling
		}
		_, d32, err := core.Run(s, f, "", nil, tile.Deferred(n, 1, r32, n, nb), core.ThenSolve, nil)
		if err != nil {
			for i := range d {
				d[i] = math.NaN()
			}
			return
		}
		for i, v := range d32 {
			d[i] = float64(v)
		}
	}
	anorm := lapack.Lange(lapack.InfNorm, n, n, a, lda)
	if lower {
		anorm = lapack.Lansy(lapack.InfNorm, blas.Lower, n, a, lda)
	}
	return refine(n, b, x, anorm, residual, solve32, fallback)
}

// SolveCholesky solves the SPD system A·x = b as Solve does with
// core.OpCholesky in float32, on a runtime of GOMAXPROCS workers at the
// library's default tile size. Only the lower triangle of A is referenced.
func SolveCholesky(n int, a []float64, lda int, b, x []float64) (Result, error) {
	rt := sched.New(runtime.GOMAXPROCS(0))
	defer rt.Shutdown()
	return Solve(rt, core.DefaultTileSize, core.OpCholesky, false, n, a, lda, b, x)
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

// infNorm returns max |vᵢ|, or NaN if any entry is NaN.
func infNorm(v []float64) float64 {
	var m float64
	for _, x := range v {
		m = max(m, math.Abs(x)) // max propagates NaN
	}
	return m
}
