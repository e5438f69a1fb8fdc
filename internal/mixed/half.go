package mixed

import (
	"exadla/internal/blas"
	"exadla/internal/half"
	"exadla/internal/lapack"
)

// SolveLUHalf solves A·x = b with a three-precision scheme modeled on the
// fp16/tensor-core refinement work that followed the keynote: the
// factorization is computed on half-precision-rounded data with the factors
// stored at half precision (fp16 storage, fp32 accumulate — the tensor-core
// model), correction solves run in float32, and residuals in float64.
//
// Because ε₁₆ = 2⁻¹⁰, the scheme only contracts for condition numbers up to
// ~10³ and needs more sweeps than the float32 scheme; beyond that it falls
// back to the full float64 solve. The matrix is pre-scaled by its largest
// entry so the factorization stays inside fp16's tiny exponent range.
func SolveLUHalf(n int, a []float64, lda int, b, x []float64) (Result, error) {
	// Scale so entries sit well inside fp16 range.
	amax := lapack.Lange(lapack.MaxAbs, n, n, a, lda)
	scale := 1.0
	if amax > 0 {
		scale = 1 / amax
	}

	// Round the scaled matrix to fp16 storage, then factor in float32.
	a32 := make([]float32, n*n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			a32[i+j*n] = half.FromFloat64(a[i+j*lda] * scale).Float32()
		}
	}
	ipiv := make([]int, n)
	factErr := lapack.Getrf(n, n, a32, n, ipiv)
	residual := gemvResidual(n, a, lda, b)
	// Store the factors at half precision (what the hardware would keep).
	half.RoundSlice32(a32)

	solveHalf := func(r []float64, d []float64) {
		r32 := make([]float32, n)
		for i, v := range r {
			r32[i] = float32(v * scale) // fold in the matrix scaling
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
	return refine(n, b, x, lapack.Lange(lapack.InfNorm, n, n, a, lda), residual, solveHalf, fallback)
}
