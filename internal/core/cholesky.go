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
	return Factor(s, OpCholesky, a, false)
}

// CholeskyForkJoin is the block-synchronous baseline: identical tile
// kernels, but with a barrier after the panel factorization, after the
// panel solves, and after the trailing update of every step.
func CholeskyForkJoin[F blas.Float](s sched.Scheduler, a *tile.Matrix[F]) error {
	return Factor(s, OpCholesky, a, true)
}

// TrsmLower submits tile tasks solving op(L)·X = B in place, where L is the
// lower-triangular tile factor in A's lower tiles and B is a tiled
// right-hand-side matrix (B.MT == A.NT).
func TrsmLower[F blas.Float](s sched.Scheduler, trans blas.Transpose, a *tile.Matrix[F], b *tile.Matrix[F]) {
	nt := a.NT
	if trans == blas.NoTrans {
		// Forward substitution over tile rows.
		for k := 0; k < nt; k++ {
			k := k
			for j := 0; j < b.NT; j++ {
				j := j
				s.Submit(sched.Task{
					Name:     "trsm",
					Priority: priority(k, nt, bandSolve),
					Reads:    []sched.Handle{a.Handle(k, k)},
					Writes:   []sched.Handle{b.Handle(k, j)},
					Fn: timed(solveNs, func() {
						blas.Trsm(blas.Left, blas.Lower, blas.NoTrans, blas.NonUnit,
							b.TileRows(k), b.TileCols(j), 1,
							a.Tile(k, k), a.TileRows(k), b.Tile(k, j), b.TileRows(k))
					}),
				})
				for i := k + 1; i < nt; i++ {
					i := i
					s.Submit(sched.Task{
						Name:     "gemm",
						Priority: priority(k, nt, bandUpdate),
						Reads:    []sched.Handle{a.Handle(i, k), b.Handle(k, j)},
						Writes:   []sched.Handle{b.Handle(i, j)},
						Fn: timed(updateNs, func() {
							blas.Gemm(blas.NoTrans, blas.NoTrans,
								b.TileRows(i), b.TileCols(j), b.TileRows(k),
								-1, a.Tile(i, k), a.TileRows(i),
								b.Tile(k, j), b.TileRows(k),
								1, b.Tile(i, j), b.TileRows(i))
						}),
					})
				}
			}
		}
		return
	}
	// Lᵀ·X = B: back substitution over tile rows.
	for k := nt - 1; k >= 0; k-- {
		k := k
		for j := 0; j < b.NT; j++ {
			j := j
			s.Submit(sched.Task{
				Name:     "trsm",
				Priority: priority(nt-1-k, nt, bandSolve),
				Reads:    []sched.Handle{a.Handle(k, k)},
				Writes:   []sched.Handle{b.Handle(k, j)},
				Fn: timed(solveNs, func() {
					blas.Trsm(blas.Left, blas.Lower, blas.Trans, blas.NonUnit,
						b.TileRows(k), b.TileCols(j), 1,
						a.Tile(k, k), a.TileRows(k), b.Tile(k, j), b.TileRows(k))
				}),
			})
			for i := 0; i < k; i++ {
				i := i
				s.Submit(sched.Task{
					Name:     "gemm",
					Priority: priority(nt-1-k, nt, bandUpdate),
					Reads:    []sched.Handle{a.Handle(k, i), b.Handle(k, j)},
					Writes:   []sched.Handle{b.Handle(i, j)},
					Fn: timed(updateNs, func() {
						// B[i][j] -= A[k][i]ᵀ·B[k][j] (L[k][i] stored at (k,i)).
						blas.Gemm(blas.Trans, blas.NoTrans,
							b.TileRows(i), b.TileCols(j), b.TileRows(k),
							-1, a.Tile(k, i), a.TileRows(k),
							b.Tile(k, j), b.TileRows(k),
							1, b.Tile(i, j), b.TileRows(i))
					}),
				})
			}
		}
	}
}

// TrsmUpper submits tile tasks solving U·X = B in place, where U is the
// upper-triangular tile factor stored in A's upper tiles (diagonal tiles
// hold U on and above the diagonal).
func TrsmUpper[F blas.Float](s sched.Scheduler, a *tile.Matrix[F], b *tile.Matrix[F]) {
	nt := a.NT
	for k := nt - 1; k >= 0; k-- {
		k := k
		for j := 0; j < b.NT; j++ {
			j := j
			s.Submit(sched.Task{
				Name:     "trsm",
				Priority: priority(nt-1-k, nt, bandSolve),
				Reads:    []sched.Handle{a.Handle(k, k)},
				Writes:   []sched.Handle{b.Handle(k, j)},
				Fn: timed(solveNs, func() {
					// Only the top TileCols(k) rows of B's tile-row k carry
					// the triangular system (they equal the tile size except
					// possibly at the boundary of a tall least-squares B).
					blas.Trsm(blas.Left, blas.Upper, blas.NoTrans, blas.NonUnit,
						a.TileCols(k), b.TileCols(j), 1,
						a.Tile(k, k), a.TileRows(k), b.Tile(k, j), b.TileRows(k))
				}),
			})
			for i := 0; i < k; i++ {
				i := i
				s.Submit(sched.Task{
					Name:     "gemm",
					Priority: priority(nt-1-k, nt, bandUpdate),
					Reads:    []sched.Handle{a.Handle(i, k), b.Handle(k, j)},
					Writes:   []sched.Handle{b.Handle(i, j)},
					Fn: timed(updateNs, func() {
						blas.Gemm(blas.NoTrans, blas.NoTrans,
							a.TileCols(i), b.TileCols(j), a.TileCols(k),
							-1, a.Tile(i, k), a.TileRows(i),
							b.Tile(k, j), b.TileRows(k),
							1, b.Tile(i, j), b.TileRows(i))
					}),
				})
			}
		}
	}
}

// Posv factors the SPD tiled matrix A in place and solves A·X = B in place,
// all in one dataflow graph with no intermediate barrier.
func Posv[F blas.Float](s sched.Scheduler, a, b *tile.Matrix[F]) error {
	es := &errState{}
	submitProgram(s, OpCholesky, a, nil, es, false, 0)
	TrsmLower(s, blas.NoTrans, a, b)
	TrsmLower(s, blas.Trans, a, b)
	return finishErr(es, s)
}
