package core

import (
	"exadla/internal/blas"
	"exadla/internal/lapack"
	"exadla/internal/sched"
	"exadla/internal/tile"
)

// TrtriLower submits tile tasks inverting the lower-triangular tile matrix
// in place (the tile analogue of TRTRI). Processing runs over tile columns
// from last to first; within a column the row tiles are transformed in
// descending order so every task reads only not-yet-transformed tiles — the
// scheduler's WAR dependences make the in-place order safe under any
// parallel execution.
func TrtriLower[F blas.Float](s sched.Scheduler, a *tile.Matrix[F], es *errState) {
	nt := a.NT
	for k := nt - 1; k >= 0; k-- {
		k := k
		// Column k below the diagonal: A[i][k] ← Σ_{l=k+1..i} L⁻¹[i][l]·A[l][k]
		// using the already-inverted trailing blocks, then ·(−L[k][k]⁻¹).
		for i := nt - 1; i > k; i-- {
			i := i
			reads := []sched.Handle{a.Handle(i, i)}
			for l := k + 1; l < i; l++ {
				reads = append(reads, a.Handle(i, l), a.Handle(l, k))
			}
			s.Submit(sched.Task{
				Name:     "trmm",
				Priority: priority(nt-1-k, nt, bandUpdate),
				Reads:    reads,
				Writes:   []sched.Handle{a.Handle(i, k)},
				Fn: func() {
					if es.failed() {
						return
					}
					// Diagonal term (in place), then the strictly-lower terms
					// reading original tiles of column k.
					blas.Trmm(blas.Left, blas.Lower, blas.NoTrans, blas.NonUnit,
						a.TileRows(i), a.TileCols(k), 1,
						a.Tile(i, i), a.TileRows(i), a.Tile(i, k), a.TileRows(i))
					for l := k + 1; l < i; l++ {
						blas.Gemm(blas.NoTrans, blas.NoTrans,
							a.TileRows(i), a.TileCols(k), a.TileCols(l),
							1, a.Tile(i, l), a.TileRows(i),
							a.Tile(l, k), a.TileRows(l),
							1, a.Tile(i, k), a.TileRows(i))
					}
				},
			})
			s.Submit(sched.Task{
				Name:     "trsm",
				Priority: priority(nt-1-k, nt, bandSolve),
				Reads:    []sched.Handle{a.Handle(k, k)},
				Writes:   []sched.Handle{a.Handle(i, k)},
				Fn: func() {
					if es.failed() {
						return
					}
					blas.Trsm(blas.Right, blas.Lower, blas.NoTrans, blas.NonUnit,
						a.TileRows(i), a.TileCols(k), -1,
						a.Tile(k, k), a.TileRows(k), a.Tile(i, k), a.TileRows(i))
				},
			})
		}
		s.Submit(sched.Task{
			Name:     "trtri",
			Priority: priority(nt-1-k, nt, bandPanel),
			Writes:   []sched.Handle{a.Handle(k, k)},
			Fn: func() {
				if es.failed() {
					return
				}
				if err := lapack.Trtri(blas.Lower, blas.NonUnit, a.TileCols(k), a.Tile(k, k), a.TileRows(k)); err != nil {
					serr := err.(*lapack.SingularError)
					es.set(&lapack.SingularError{Index: k*a.NB + serr.Index})
				}
			},
		})
	}
}

// LauumLower submits tile tasks computing Wᵀ·W for a lower-triangular tile
// matrix W in place (the tile analogue of LAUUM): on return the lower tiles
// hold the lower triangle of the symmetric product. Row blocks are consumed
// in ascending order, reading only trailing tiles that have not yet been
// transformed.
func LauumLower[F blas.Float](s sched.Scheduler, a *tile.Matrix[F]) {
	nt := a.NT
	for i := 0; i < nt; i++ {
		i := i
		for j := 0; j < i; j++ {
			j := j
			reads := []sched.Handle{a.Handle(i, i)}
			for l := i + 1; l < nt; l++ {
				reads = append(reads, a.Handle(l, i), a.Handle(l, j))
			}
			s.Submit(sched.Task{
				Name:     "trmm",
				Priority: priority(i, nt, bandUpdate),
				Reads:    reads,
				Writes:   []sched.Handle{a.Handle(i, j)},
				Fn: func() {
					// A[i][j] ← W[i][i]ᵀ·A[i][j] + Σ_{l>i} W[l][i]ᵀ·W[l][j].
					blas.Trmm(blas.Left, blas.Lower, blas.Trans, blas.NonUnit,
						a.TileRows(i), a.TileCols(j), 1,
						a.Tile(i, i), a.TileRows(i), a.Tile(i, j), a.TileRows(i))
					for l := i + 1; l < nt; l++ {
						blas.Gemm(blas.Trans, blas.NoTrans,
							a.TileCols(i), a.TileCols(j), a.TileRows(l),
							1, a.Tile(l, i), a.TileRows(l),
							a.Tile(l, j), a.TileRows(l),
							1, a.Tile(i, j), a.TileRows(i))
					}
				},
			})
		}
		reads := make([]sched.Handle, 0, nt-i)
		for l := i + 1; l < nt; l++ {
			reads = append(reads, a.Handle(l, i))
		}
		s.Submit(sched.Task{
			Name:     "lauum",
			Priority: priority(i, nt, bandPanel),
			Reads:    reads,
			Writes:   []sched.Handle{a.Handle(i, i)},
			Fn: func() {
				lapack.Lauu2(blas.Lower, a.TileCols(i), a.Tile(i, i), a.TileRows(i))
				for l := i + 1; l < nt; l++ {
					blas.Syrk(blas.Lower, blas.Trans, a.TileCols(i), a.TileRows(l),
						1, a.Tile(l, i), a.TileRows(l), 1, a.Tile(i, i), a.TileRows(i))
				}
			},
		})
	}
}

// Potri computes the inverse of an SPD tiled matrix in place from scratch:
// tile Cholesky, tile triangular inverse, and the Wᵀ·W product, all in one
// dataflow graph. On return the lower tiles hold the lower triangle of A⁻¹.
func Potri[F blas.Float](s sched.Scheduler, a *tile.Matrix[F]) error {
	if a.M != a.N {
		panic("core: Potri needs a square matrix")
	}
	es := &errState{}
	packs := submitProgram(s, OpCholesky, a, nil, es, false, 0)
	TrtriLower(s, a, es)
	LauumLower(s, a)
	err := finishErr(es, s)
	packs.release()
	return err
}
