package core

import (
	"exadla/internal/blas"
	"exadla/internal/lapack"
	"exadla/internal/sched"
	"exadla/internal/tile"
)

// LU computes the tile LU factorization of A with partial pivoting as one
// dataflow graph, with the pivots LAPACK's GETRF chooses: one task per
// panel step factors the whole tile column below the diagonal. A singular
// pivot is reported after completion, like LAPACK's GETRF; the
// factorization still runs to completion.
//
// After factorization:
//   - A holds L\U: U on and above the diagonal, the unit-lower L strictly
//     below it;
//   - Piv[r] is the row (global, zero-based, ≥ r) swapped with row r at
//     elimination r — the vector lapack.Getrf returns.
//
// Rows are swapped only right of the panel that chose them: panel step k's
// L columns keep the row order they had at step k, so they differ from
// LAPACK's L by the interchanges of the later steps. Every tile thus has
// one finalizing writer; the LU solve (see Solve) replays the
// interchanges in the same order.
func LU[F blas.Float](s sched.Scheduler, a *tile.Matrix[F]) (*Factors[F], error) {
	return Factor(s, OpLU, a, nil, false)
}

// getrfPanel factors tile rows k…last of tile column k with partial
// pivoting: it gathers them into pooled contiguous scratch, runs the
// recursive lapack.Getrf there, scatters the factor back and records the
// pivots as global rows in piv.
func getrfPanel[F blas.Float](a *tile.Matrix[F], k, last int, piv []int) error {
	r0, nc := k*a.NB, a.TileCols(k)
	m := min((last+1)*a.NB, a.M) - r0
	w := blas.GetScratch[F](m * nc)
	defer w.Release()
	for i := k; i <= last; i++ {
		lapack.Lacpy(lapack.General, a.TileRows(i), nc, a.Tile(i, k), a.TileRows(i), w.Buf[(i-k)*a.NB:], m)
	}
	p := piv[r0 : r0+min(m, nc)]
	err := lapack.Getrf(m, nc, w.Buf, m, p)
	for i := k; i <= last; i++ {
		lapack.Lacpy(lapack.General, a.TileRows(i), nc, w.Buf[(i-k)*a.NB:], m, a.Tile(i, k), a.TileRows(i))
	}
	for t := range p {
		p[t] += r0
	}
	return singularAt(err, r0)
}

// swptrsm applies panel step k of the factorization in a (pivots piv, L in
// tile (k, k)) to tile column j of b: it swaps the rows the step's pivots
// name, all at or below tile row k, then solves B[k][j] ← L[k][k]⁻¹·B[k][j].
// b may be a itself or a right-hand side with a's row tiling.
func swptrsm[F blas.Float](a *tile.Matrix[F], piv []int, k int, b *tile.Matrix[F], j int) {
	nb, nc := a.NB, b.TileCols(j)
	tr := a.TileRows(k)
	kk := min(tr, a.TileCols(k))
	for r := k * nb; r < k*nb+kk; r++ {
		if p := piv[r]; p != r {
			blas.Swap(nc, b.Tile(r/nb, j)[r%nb:], b.TileRows(r/nb), b.Tile(p/nb, j)[p%nb:], b.TileRows(p/nb))
		}
	}
	l, c, ldc := a.Tile(k, k), b.Tile(k, j), b.TileRows(k)
	blas.Trsm(blas.Left, blas.Lower, blas.NoTrans, blas.Unit, kk, nc, 1, l, tr, c, ldc)
	if tr > kk {
		// A diagonal tile taller than wide — the last tile column of a tall
		// matrix, replayed on B by the LU solve — also carries multipliers
		// below its eliminated block.
		blas.Gemm(blas.NoTrans, blas.NoTrans, tr-kk, nc, kk, -1, l[kk:], tr, c, ldc, 1, c[kk:], ldc)
	}
}

// lgemm is the trailing update B[i][j] -= L[i][k]·B[k][j] with L from a;
// b may be a itself or a right-hand side with a's row tiling. pl and pb,
// if not nil, are the shared packs of L[i][k] and B[k][j].
func lgemm[F blas.Float](a *tile.Matrix[F], k, i int, b *tile.Matrix[F], j int, pl, pb *blas.Packed[F]) {
	blas.GemmPrepacked(blas.NoTrans, blas.NoTrans,
		b.TileRows(i), b.TileCols(j), a.TileCols(k),
		-1, a.Tile(i, k), a.TileRows(i), pl,
		b.Tile(k, j), b.TileRows(k), pb,
		1, b.Tile(i, j), b.TileRows(i))
}

// Gesv factors the square tiled matrix A in place and solves A·X = B in
// place, all in one dataflow graph.
func Gesv[F blas.Float](s sched.Scheduler, a, b *tile.Matrix[F]) (*Factors[F], error) {
	return Factor(s, OpLU, a, b, false)
}
