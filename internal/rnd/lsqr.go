// Package rnd implements the randomized numerical linear algebra the
// keynote points to as a "new rule": an SRHT sketch,
// sketch-to-precondition (Blendenpik) least squares on it, and randomized
// condition estimation — plus the LSQR iterative solver the sketch
// preconditions.
package rnd

import (
	"math"

	"exadla/internal/blas"
)

// Operator is a matrix presented as the pair of products LSQR needs.
type Operator interface {
	// Dims returns the operator's row and column counts.
	Dims() (m, n int)
	// Apply computes y ← A·x.
	Apply(x, y []float64)
	// ApplyT computes y ← Aᵀ·x.
	ApplyT(x, y []float64)
}

// DenseOp adapts a dense column-major matrix to Operator.
type DenseOp struct {
	M, N int
	A    []float64
	LDA  int
}

// Dims implements Operator.
func (d *DenseOp) Dims() (int, int) { return d.M, d.N }

// Apply implements Operator.
func (d *DenseOp) Apply(x, y []float64) {
	blas.Gemv(blas.NoTrans, d.M, d.N, 1, d.A, d.LDA, x, 1, 0, y, 1)
}

// ApplyT implements Operator.
func (d *DenseOp) ApplyT(x, y []float64) {
	blas.Gemv(blas.Trans, d.M, d.N, 1, d.A, d.LDA, x, 1, 0, y, 1)
}

// LSQRResult reports the outcome of an LSQR run.
type LSQRResult struct {
	// X is the solution estimate.
	X []float64
	// Iterations is the number of bidiagonalization steps taken.
	Iterations int
	// Converged reports whether a stopping test fired before the
	// iteration cap.
	Converged bool
	// ResidualNorm estimates ‖b − A·x‖.
	ResidualNorm float64
}

// LSQR solves min‖A·x − b‖₂ with the Paige–Saunders bidiagonalization
// algorithm. atol is the relative tolerance on the normal-equations
// residual ‖Aᵀr‖/(‖A‖‖r‖); typical values 1e-12 for float64 data.
func LSQR(op Operator, b []float64, atol float64, maxIter int) LSQRResult {
	m, n := op.Dims()
	if maxIter <= 0 {
		maxIter = 2 * n
	}
	x := make([]float64, n)
	u := append([]float64(nil), b[:m]...)
	beta := blas.Nrm2(m, u, 1)
	if beta == 0 {
		return LSQRResult{X: x, Converged: true}
	}
	blas.Scal(m, 1/beta, u, 1)
	v := make([]float64, n)
	op.ApplyT(u, v)
	alpha := blas.Nrm2(n, v, 1)
	if alpha == 0 {
		return LSQRResult{X: x, Converged: true, ResidualNorm: beta}
	}
	blas.Scal(n, 1/alpha, v, 1)
	w := append([]float64(nil), v...)

	phibar, rhobar := beta, alpha
	anorm := 0.0
	tmpM := make([]float64, m)
	tmpN := make([]float64, n)
	res := LSQRResult{X: x}
	for it := 1; it <= maxIter; it++ {
		res.Iterations = it
		// u ← A·v − α·u, reorthogonalize the norm.
		op.Apply(v, tmpM)
		for i := range u {
			u[i] = tmpM[i] - alpha*u[i]
		}
		beta = blas.Nrm2(m, u, 1)
		if beta > 0 {
			blas.Scal(m, 1/beta, u, 1)
		}
		// v ← Aᵀ·u − β·v.
		op.ApplyT(u, tmpN)
		for i := range v {
			v[i] = tmpN[i] - beta*v[i]
		}
		alpha = blas.Nrm2(n, v, 1)
		if alpha > 0 {
			blas.Scal(n, 1/alpha, v, 1)
		}
		anorm = math.Hypot(anorm, math.Hypot(alpha, beta))

		// Givens rotation eliminating beta from the bidiagonal system.
		rho := math.Hypot(rhobar, beta)
		c, s := rhobar/rho, beta/rho
		theta := s * alpha
		rhobar = -c * alpha
		phi := c * phibar
		phibar = s * phibar

		// Update x and the search direction w.
		t1, t2 := phi/rho, -theta/rho
		blas.Axpy(n, t1, w, 1, x, 1)
		for i := range w {
			w[i] = v[i] + t2*w[i]
		}

		res.ResidualNorm = phibar
		// ‖Aᵀr‖ = phibar·alpha·|c|; stop when it is small relative to
		// ‖A‖·‖r‖.
		atr := phibar * alpha * math.Abs(c)
		if anorm > 0 && phibar > 0 {
			if atr/(anorm*phibar) <= atol {
				res.Converged = true
				return res
			}
		} else {
			res.Converged = true
			return res
		}
	}
	return res
}
