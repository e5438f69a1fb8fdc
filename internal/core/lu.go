package core

import (
	"exadla/internal/blas"
	"exadla/internal/lapack"
	"exadla/internal/sched"
	"exadla/internal/tile"
)

// LUFactors holds the output of the tile LU factorization with incremental
// (block pairwise) pivoting — the tile algorithm's trade of a slightly
// weaker pivoting strategy for a barrier-free DAG, exactly the compromise
// the extreme-scale argument discusses.
//
// After factorization:
//   - diagonal tiles hold the L\U of their local factorization, with U
//     updated by later TSTRF steps;
//   - super-diagonal tiles hold the final U blocks;
//   - DiagPiv[k] holds the partial pivoting permutation of step k's
//     diagonal factorization;
//   - StackL and StackPiv hold, for each (i, k) with i > k, the stacked
//     elimination factors of [U_kk; A_ik]: a ((nbₖ+nbᵢ)×nbₖ) unit-lower
//     trapezoid (strictly-lower entries) and its pivot vector.
type LUFactors[F blas.Float] struct {
	A       *tile.Matrix[F]
	DiagPiv [][]int
	// StackL and StackPiv are indexed by i + k·MT.
	StackL   [][]F
	StackPiv [][]int
}

func (f *LUFactors[F]) stackIdx(i, k int) int { return i + k*f.A.MT }

// LU computes the tile LU factorization of A with incremental pivoting as
// one dataflow graph. A singular pivot is reported after completion, like
// LAPACK's GETRF; the factorization still runs to completion.
func LU[F blas.Float](s sched.Scheduler, a *tile.Matrix[F]) (*LUFactors[F], error) {
	f := newLUFactors(a)
	es := &errState{}
	submitProgram(s, OpLU, a, f, es, false, 0)
	return f, finishErr(es, s)
}

// LUForkJoin is the block-synchronous baseline of LU.
func LUForkJoin[F blas.Float](s sched.Scheduler, a *tile.Matrix[F]) (*LUFactors[F], error) {
	f := newLUFactors(a)
	es := &errState{}
	submitProgram(s, OpLU, a, f, es, true, 0)
	return f, finishErr(es, s)
}

func newLUFactors[F blas.Float](a *tile.Matrix[F]) *LUFactors[F] {
	return &LUFactors[F]{
		A:        a,
		DiagPiv:  make([][]int, min(a.MT, a.NT)),
		StackL:   make([][]F, a.MT*a.NT),
		StackPiv: make([][]int, a.MT*a.NT),
	}
}

// gessm applies the diagonal tile's LU transform (pivots piv, unit-lower
// factor in the tile's strict lower triangle, kk eliminations) to the
// m×n tile C.
func gessm[F blas.Float](m, n, kk int, piv []int, l []F, ldl int, c []F, ldc int) {
	lapack.Laswp(n, c, ldc, 0, kk, piv)
	blas.Trsm(blas.Left, blas.Lower, blas.NoTrans, blas.Unit, kk, n, 1, l, ldl, c, ldc)
	if m > kk {
		// Rows below the eliminated block also carry multipliers (tall
		// diagonal tiles at the matrix boundary).
		blas.Gemm(blas.NoTrans, blas.NoTrans, m-kk, n, kk,
			-1, l[kk:], ldl, c, ldc, 1, c[kk:], ldc)
	}
}

// tstrf eliminates the m2×n tile A2 against the n×n upper-triangular block
// U in the top of the diagonal tile (leading dimension ldu), with pivoting
// across the stacked (n+m2)×n matrix [U; A2]. On return U is updated in
// place, A2 holds the bottom of the stacked unit-lower factor, and the full
// stacked factor (strictly-lower entries, including rows that pivoting
// pulled into the top) plus the pivot vector are returned for use by ssssm
// and the solver.
func tstrf[F blas.Float](n, m2 int, u []F, ldu int, a2 []F, lda2 int) (stackL []F, piv []int, err error) {
	mw := n + m2
	w := make([]F, mw*n)
	// Top: the upper triangle of U; strictly-lower stays zero.
	for j := 0; j < n; j++ {
		copy(w[j*mw:j*mw+j+1], u[j*ldu:j*ldu+j+1])
	}
	// Bottom: A2.
	for j := 0; j < n; j++ {
		copy(w[n+j*mw:n+j*mw+m2], a2[j*lda2:j*lda2+m2])
	}
	piv = make([]int, n)
	err = lapack.Getf2(mw, n, w, mw, piv)
	// Write the updated U back.
	for j := 0; j < n; j++ {
		copy(u[j*ldu:j*ldu+j+1], w[j*mw:j*mw+j+1])
	}
	// A2 receives the bottom of the unit-lower factor.
	for j := 0; j < n; j++ {
		copy(a2[j*lda2:j*lda2+m2], w[n+j*mw:n+j*mw+m2])
	}
	return w, piv, err
}

// ssssm applies a tstrf transform (stacked factor stackL with pivots piv,
// n eliminations over a (n+m2)-row stack) to the pair of tiles C1 (top n
// rows used, leading dimension ldc1) and C2 (m2×nc).
func ssssm[F blas.Float](n, m2, nc int, stackL []F, piv []int, c1 []F, ldc1 int, c2 []F, ldc2 int) {
	mw := n + m2
	// Stack the right-hand sides.
	w := make([]F, mw*nc)
	for j := 0; j < nc; j++ {
		copy(w[j*mw:j*mw+n], c1[j*ldc1:j*ldc1+n])
		copy(w[n+j*mw:n+j*mw+m2], c2[j*ldc2:j*ldc2+m2])
	}
	lapack.Laswp(nc, w, mw, 0, n, piv)
	// X1 = L̃1⁻¹·(PW)₁ then X2 = (PW)₂ − L̃2·X1.
	blas.Trsm(blas.Left, blas.Lower, blas.NoTrans, blas.Unit, n, nc, 1, stackL, mw, w, mw)
	blas.Gemm(blas.NoTrans, blas.NoTrans, m2, nc, n,
		-1, stackL[n:], mw, w, mw, 1, w[n:], mw)
	// Unstack.
	for j := 0; j < nc; j++ {
		copy(c1[j*ldc1:j*ldc1+n], w[j*mw:j*mw+n])
		copy(c2[j*ldc2:j*ldc2+m2], w[n+j*mw:n+j*mw+m2])
	}
}

// ApplyLU submits tasks applying the forward elimination recorded in the
// LU factors to the tiled right-hand side B in place (the analogue of the
// row-swap + L-solve half of GETRS), replaying the factorization order.
func ApplyLU[F blas.Float](s sched.Scheduler, f *LUFactors[F], b *tile.Matrix[F]) {
	a := f.A
	kt := min(a.MT, a.NT)
	for k := 0; k < kt; k++ {
		k := k
		for j := 0; j < b.NT; j++ {
			j := j
			s.Submit(sched.Task{
				Name:     "gessm",
				Priority: priority(k, kt, bandSolve),
				Reads:    []sched.Handle{a.Handle(k, k)},
				Writes:   []sched.Handle{b.Handle(k, j)},
				Fn: timed(solveNs, func() {
					gessm(b.TileRows(k), b.TileCols(j), min(a.TileRows(k), a.TileCols(k)),
						f.DiagPiv[k], a.Tile(k, k), a.TileRows(k),
						b.Tile(k, j), b.TileRows(k))
				}),
			})
		}
		for i := k + 1; i < a.MT; i++ {
			i := i
			for j := 0; j < b.NT; j++ {
				j := j
				s.Submit(sched.Task{
					Name:     "ssssm",
					Priority: priority(k, kt, bandUpdate),
					Reads:    []sched.Handle{a.Handle(i, k)},
					Writes:   []sched.Handle{b.Handle(k, j), b.Handle(i, j)},
					Fn: timed(updateNs, func() {
						ssssm(a.TileCols(k), a.TileRows(i), b.TileCols(j),
							f.StackL[f.stackIdx(i, k)], f.StackPiv[f.stackIdx(i, k)],
							b.Tile(k, j), b.TileRows(k),
							b.Tile(i, j), b.TileRows(i))
					}),
				})
			}
		}
	}
}

// Gesv factors the square tiled matrix A in place and solves A·X = B in
// place, all in one dataflow graph.
func Gesv[F blas.Float](s sched.Scheduler, a, b *tile.Matrix[F]) (*LUFactors[F], error) {
	if a.M != a.N {
		panic("core: Gesv needs a square matrix")
	}
	f := newLUFactors(a)
	es := &errState{}
	submitProgram(s, OpLU, a, f, es, false, 0)
	ApplyLU(s, f, b)
	TrsmUpper(s, a, b)
	return f, finishErr(es, s)
}
