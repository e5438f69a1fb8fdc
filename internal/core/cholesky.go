package core

import (
	"exadla/internal/blas"
	"exadla/internal/sched"
	"exadla/internal/tile"
)

// Cholesky computes the lower-triangular tile Cholesky factorization
// A = L·Lᵀ of the symmetric positive definite tiled matrix A (only the
// lower triangle is referenced), scheduling the full task DAG at once and
// waiting for completion. On success the lower tiles of A hold L.
func Cholesky[F blas.Float](s sched.Scheduler, a *tile.Matrix[F]) error {
	_, err := Factor(s, OpCholesky, a, nil, false)
	return err
}

// TrsmLower submits tile tasks solving op(L)·X = B in place, where L is the
// lower-triangular tile factor in A's lower tiles and B is a tiled
// right-hand side with A's row tiling: one sweep of the Cholesky solve.
func TrsmLower[F blas.Float](s sched.Scheduler, trans blas.Transpose, a *tile.Matrix[F], b *tile.Matrix[F]) {
	sw := sweepL
	if trans == blas.Trans {
		sw = sweepLT
	}
	submitSolve(s, &Factors[F]{A: a, op: OpCholesky}, b, &errState{}, sw)
}

// Posv factors the SPD tiled matrix A in place and solves A·X = B in place,
// all in one dataflow graph with no intermediate barrier.
func Posv[F blas.Float](s sched.Scheduler, a, b *tile.Matrix[F]) error {
	_, err := Factor(s, OpCholesky, a, b, false)
	return err
}
