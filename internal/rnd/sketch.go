package rnd

import (
	"fmt"
	"math"
	"math/rand"

	"exadla/internal/blas"
	"exadla/internal/lapack"
)

// The one least-squares path's settings. A 4n-row SRHT sketch keeps
// κ(A·R⁻¹) near one, so LSQR meets lsqrTol in a few dozen iterations
// whatever A's conditioning; lsqrMaxIter is the cap that reports a run
// which did not.
const (
	sketchFactor = 4
	lsqrTol      = 1e-14
	lsqrMaxIter  = 300
)

// SolveStats reports how a randomized least-squares solve went.
type SolveStats struct {
	// SketchRows is the sketch dimension used.
	SketchRows int
	// LSQRIterations counts preconditioned LSQR steps.
	LSQRIterations int
	// Converged reports LSQR convergence.
	Converged bool
}

// SolveLS solves min‖A·x − b‖ to full accuracy with the Blendenpik
// sketch-to-precondition scheme: sketch A with an SRHT of sketchFactor·n
// rows, QR-factor the sketch S·A, use its R as a right preconditioner, and
// run LSQR on A·R⁻¹, which converges in O(log(1/ε)) iterations independent
// of A's conditioning. Cost: O(m·n·log m) sketch + O(s·n²) QR +
// O(iterations·m·n) LSQR, against O(m·n²) for direct QR.
func SolveLS(rng *rand.Rand, m, n int, a []float64, lda int, b []float64) ([]float64, SolveStats, error) {
	s := max(min(sketchFactor*n, m), n)
	sa := NewSRHT(rng, s, m).ApplyMatrix(n, a, lda)
	tau := make([]float64, n)
	lapack.Geqrf(s, n, sa, s, tau)
	// R = upper triangle of sa.
	for i := 0; i < n; i++ {
		if sa[i+i*s] == 0 {
			return nil, SolveStats{SketchRows: s}, fmt.Errorf("rnd: sketched matrix rank deficient at column %d", i)
		}
	}
	op := &precondOp{m: m, n: n, a: a, lda: lda, r: sa, ldr: s}
	res := LSQR(op, b, lsqrTol, lsqrMaxIter)
	// x = R⁻¹·z.
	x := res.X
	blas.Trsv(blas.Upper, blas.NoTrans, blas.NonUnit, n, sa, s, x, 1)
	return x, SolveStats{SketchRows: s, LSQRIterations: res.Iterations, Converged: res.Converged}, nil
}

// precondOp presents A·R⁻¹ to LSQR.
type precondOp struct {
	m, n int
	a    []float64
	lda  int
	r    []float64
	ldr  int
	bufN []float64
}

func (p *precondOp) Dims() (int, int) { return p.m, p.n }

func (p *precondOp) Apply(x, y []float64) {
	if p.bufN == nil {
		p.bufN = make([]float64, p.n)
	}
	copy(p.bufN, x)
	blas.Trsv(blas.Upper, blas.NoTrans, blas.NonUnit, p.n, p.r, p.ldr, p.bufN, 1)
	blas.Gemv(blas.NoTrans, p.m, p.n, 1, p.a, p.lda, p.bufN, 1, 0, y, 1)
}

func (p *precondOp) ApplyT(x, y []float64) {
	blas.Gemv(blas.Trans, p.m, p.n, 1, p.a, p.lda, x, 1, 0, y, 1)
	blas.Trsv(blas.Upper, blas.Trans, blas.NonUnit, p.n, p.r, p.ldr, y, 1)
}

// CondEst2 estimates the 2-norm condition number of a full-rank m×n matrix
// (m ≥ n) by power iteration on AᵀA for σ²max and inverse iteration through
// a QR factorization for σ²min. iters ≈ 30 gives a couple of digits, all
// randomized algorithms need.
func CondEst2(rng *rand.Rand, m, n int, a []float64, lda int, iters int) float64 {
	if iters <= 0 {
		iters = 30
	}
	// σmax via power iteration.
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	tmp := make([]float64, m)
	var smax float64
	for it := 0; it < iters; it++ {
		blas.Gemv(blas.NoTrans, m, n, 1, a, lda, v, 1, 0, tmp, 1)
		blas.Gemv(blas.Trans, m, n, 1, a, lda, tmp, 1, 0, v, 1)
		nrm := blas.Nrm2(n, v, 1)
		if nrm == 0 {
			return math.Inf(1)
		}
		smax = math.Sqrt(nrm)
		blas.Scal(n, 1/nrm, v, 1)
	}
	// σmin via inverse iteration with AᵀA = RᵀR.
	qr := make([]float64, m*n)
	lapack.Lacpy(lapack.General, m, n, a, lda, qr, m)
	tau := make([]float64, n)
	lapack.Geqrf(m, n, qr, m, tau)
	for i := 0; i < n; i++ {
		if qr[i+i*m] == 0 {
			return math.Inf(1)
		}
	}
	w := make([]float64, n)
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	var sminInv float64
	for it := 0; it < iters; it++ {
		// Solve RᵀR z = w.
		blas.Trsv(blas.Upper, blas.Trans, blas.NonUnit, n, qr, m, w, 1)
		blas.Trsv(blas.Upper, blas.NoTrans, blas.NonUnit, n, qr, m, w, 1)
		nrm := blas.Nrm2(n, w, 1)
		if nrm == 0 {
			break
		}
		sminInv = math.Sqrt(nrm)
		blas.Scal(n, 1/nrm, w, 1)
	}
	if sminInv == 0 {
		return math.Inf(1)
	}
	return smax * sminInv
}
