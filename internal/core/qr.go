package core

import (
	"exadla/internal/blas"
	"exadla/internal/lapack"
	"exadla/internal/sched"
	"exadla/internal/tile"
)

// QRFactors holds the output of a tile QR factorization: A's tiles contain
// R in the upper triangle and the Householder vectors below, and T contains
// the per-tile block-reflector triangular factors (from GEQRT, plus TSQRT
// factors for the flat order). Tree-order factorizations (QRTree) also
// carry the pairwise-merge factors in T2 and replay a different elimination
// plan in ApplyQT.
type QRFactors[F blas.Float] struct {
	A  *tile.Matrix[F]
	T  *tile.Matrix[F]
	T2 *tile.Matrix[F] // tree merge factors; nil for the flat order

	tree bool
}

// QR computes the tile QR factorization of A (m×n, any shape) using the
// flat (PLASMA-style) elimination order: each subdiagonal tile is folded
// into the panel's triangular factor with a TSQRT kernel as soon as its
// dependences allow. The returned factors reference A in place.
func QR[F blas.Float](s sched.Scheduler, a *tile.Matrix[F]) *QRFactors[F] {
	f := &QRFactors[F]{A: a, T: tile.New[F](a.MT*a.NB, a.NT*a.NB, a.NB)}
	submitQR(s, f, false)
	s.Wait()
	return f
}

// QRForkJoin is the block-synchronous baseline of QR, with a barrier after
// each phase of each panel step.
func QRForkJoin[F blas.Float](s sched.Scheduler, a *tile.Matrix[F]) *QRFactors[F] {
	f := &QRFactors[F]{A: a, T: tile.New[F](a.MT*a.NB, a.NT*a.NB, a.NB)}
	submitQR(s, f, true)
	s.Wait()
	return f
}

func submitQR[F blas.Float](s sched.Scheduler, f *QRFactors[F], forkJoin bool) {
	a, t := f.A, f.T
	kt := min(a.MT, a.NT)
	for k := 0; k < kt; k++ {
		k := k
		s.Submit(sched.Task{
			Name:     "geqrt",
			Priority: priority(k, kt, bandPanel),
			Writes:   []sched.Handle{a.Handle(k, k), t.Handle(k, k)},
			Fn: timed(panelNs, func() {
				lapack.Geqrt(a.TileRows(k), a.TileCols(k), a.Tile(k, k), a.TileRows(k), t.Tile(k, k), t.TileRows(k))
			}),
		})
		if forkJoin {
			s.Wait()
		}
		for j := k + 1; j < a.NT; j++ {
			j := j
			s.Submit(sched.Task{
				Name:     "unmqr",
				Priority: priority(j, kt, bandSolve),
				Reads:    []sched.Handle{a.Handle(k, k), t.Handle(k, k)},
				Writes:   []sched.Handle{a.Handle(k, j)},
				Fn: timed(solveNs, func() {
					unmqr(a.TileRows(k), a.TileCols(j), min(a.TileRows(k), a.TileCols(k)),
						a.Tile(k, k), a.TileRows(k), t.Tile(k, k), t.TileRows(k),
						a.Tile(k, j), a.TileRows(k))
				}),
			})
		}
		if forkJoin {
			s.Wait()
		}
		for i := k + 1; i < a.MT; i++ {
			i := i
			s.Submit(sched.Task{
				Name:     "tsqrt",
				Priority: priority(k, kt, bandPanel),
				Reads:    nil,
				Writes:   []sched.Handle{a.Handle(k, k), a.Handle(i, k), t.Handle(i, k)},
				Fn: timed(panelNs, func() {
					tsqrt(a.TileCols(k), a.TileRows(i),
						a.Tile(k, k), a.TileRows(k),
						a.Tile(i, k), a.TileRows(i),
						t.Tile(i, k), t.TileRows(i))
				}),
			})
			for j := k + 1; j < a.NT; j++ {
				j := j
				s.Submit(sched.Task{
					Name:     "tsmqr",
					Priority: priority(j, kt, bandUpdate),
					Reads:    []sched.Handle{a.Handle(i, k), t.Handle(i, k)},
					Writes:   []sched.Handle{a.Handle(k, j), a.Handle(i, j)},
					Fn: timed(updateNs, func() {
						tsmqr(blas.Trans, a.TileCols(k), a.TileRows(i), a.TileCols(j),
							a.Tile(i, k), a.TileRows(i),
							t.Tile(i, k), t.TileRows(i),
							a.Tile(k, j), a.TileRows(k),
							a.Tile(i, j), a.TileRows(i))
					}),
				})
			}
			if forkJoin {
				s.Wait()
			}
		}
	}
}

// unmqr applies Qᵀ from a geqrt-factored tile (k reflectors in v, factor t)
// to the m×n tile c.
func unmqr[F blas.Float](m, n, k int, v []F, ldv int, t []F, ldt int, c []F, ldc int) {
	w := blas.GetScratch[F](k * n)
	lapack.Larfb(blas.Left, blas.Trans, m, n, k, v, ldv, t, ldt, c, ldc, w.Buf, k)
	w.Release()
}

// tsqrtLeaf is the width at and below which tsqrt's recursion runs the
// column-by-column loop.
const tsqrtLeaf = 8

// tsqrt computes the structured QR factorization of the (n+m2)×n stacked
// matrix [R; A2] where R (n×n upper triangular) lives in the top of tile
// r (leading dimension ldr) and A2 is the m2×n tile a2. On return R is
// updated, a2 holds the dense lower parts of the Householder vectors (the
// top parts are implicit identity columns), and t holds the n×n triangular
// block-reflector factor. It splits the columns in two (Elmroth–Gustavson):
// the left half is factored recursively and applied to the right half,
// the right half is factored recursively, and T₁₂ = −T₁₁·(V₁ᵀ·V₂)·T₂₂
// joins the two factors, so all but the narrow leaves is GEMM and TRMM.
func tsqrt[F blas.Float](n, m2 int, r []F, ldr int, a2 []F, lda2 int, t []F, ldt int) {
	if n <= tsqrtLeaf {
		tsqrt2(n, m2, r, ldr, a2, lda2, t, ldt)
		return
	}
	n1 := n / 2
	n2 := n - n1
	t12 := t[n1*ldt:]
	tsqrt(n1, m2, r, ldr, a2, lda2, t, ldt)
	// T₁₂ is free until the end: it is the workspace of the update.
	applyTS(blas.Trans, n1, m2, n2, a2, lda2, t, ldt, r[n1*ldr:], ldr, a2[n1*lda2:], lda2, t12, ldt)
	tsqrt(n2, m2, r[n1+n1*ldr:], ldr, a2[n1*lda2:], lda2, t[n1+n1*ldt:], ldt)
	// The identity tops of the two halves' vectors are orthogonal, so
	// V₁ᵀ·V₂ = A2[:, :n1]ᵀ·A2[:, n1:].
	blas.Gemm(blas.Trans, blas.NoTrans, n1, n2, m2, 1, a2, lda2, a2[n1*lda2:], lda2, 0, t12, ldt)
	blas.Trmm(blas.Left, blas.Upper, blas.NoTrans, blas.NonUnit, n1, n2, -1, t, ldt, t12, ldt)
	blas.Trmm(blas.Right, blas.Upper, blas.NoTrans, blas.NonUnit, n1, n2, 1, t[n1+n1*ldt:], ldt, t12, ldt)
}

// tsqrt2 is tsqrt's leaf: one reflector per column, with T's column j
// formed right after reflector j. T's last column is the workspace of the
// trailing updates until its own turn.
func tsqrt2[F blas.Float](n, m2 int, r []F, ldr int, a2 []F, lda2 int, t []F, ldt int) {
	w := t[(n-1)*ldt:]
	for j := 0; j < n; j++ {
		// Reflector zeroing A2[:, j] against R[j, j].
		beta, tau := lapack.Larfg(1+m2, r[j+j*ldr], a2[j*lda2:j*lda2+m2], 1)
		r[j+j*ldr] = beta
		v2 := a2[j*lda2 : j*lda2+m2]
		if nc := n - j - 1; nc > 0 && tau != 0 {
			// w = R[j, j+1:] + A2[:, j+1:]ᵀ·v2.
			for c := 0; c < nc; c++ {
				w[c] = r[j+(j+1+c)*ldr]
			}
			blas.Gemv(blas.Trans, m2, nc, 1, a2[(j+1)*lda2:], lda2, v2, 1, 1, w[:nc], 1)
			// R[j, j+1:] -= tau·w;  A2[:, j+1:] -= tau·v2·wᵀ.
			for c := 0; c < nc; c++ {
				r[j+(j+1+c)*ldr] -= tau * w[c]
			}
			blas.Ger(m2, nc, -tau, v2, 1, w[:nc], 1, a2[(j+1)*lda2:], lda2)
		}
		// T column j: T[0:j, j] = −tau·T[0:j,0:j]·(V2[:,0:j]ᵀ·v2); the
		// implicit identity tops are orthogonal so only V2 contributes.
		if j > 0 {
			blas.Gemv(blas.Trans, m2, j, -tau, a2, lda2, v2, 1, 0, t[j*ldt:], 1)
			blas.Trmv(blas.Upper, blas.NoTrans, blas.NonUnit, j, t, ldt, t[j*ldt:], 1)
		}
		t[j+j*ldt] = tau
	}
}

// tsmqr applies the block reflector from tsqrt (v2 m2×k = dense vector
// parts, t k×k) to the stacked pair [C1; C2]: C1 is k×n (top rows of an
// nb×n tile with leading dimension ldc1), C2 is m2×n.
// trans selects Qᵀ (blas.Trans, used during factorization and solves) or Q.
func tsmqr[F blas.Float](trans blas.Transpose, k, m2, n int, v2 []F, ldv2 int, t []F, ldt int, c1 []F, ldc1 int, c2 []F, ldc2 int) {
	if k == 0 || n == 0 {
		return
	}
	w := blas.GetScratch[F](k * n)
	applyTS(trans, k, m2, n, v2, ldv2, t, ldt, c1, ldc1, c2, ldc2, w.Buf, k)
	w.Release()
}

// applyTS is tsmqr with the k×n workspace w (leading dimension ldw) given.
func applyTS[F blas.Float](trans blas.Transpose, k, m2, n int, v2 []F, ldv2 int, t []F, ldt int, c1 []F, ldc1 int, c2 []F, ldc2 int, w []F, ldw int) {
	// W = C1 + V2ᵀ·C2 (k×n).
	lapack.Lacpy(lapack.General, k, n, c1, ldc1, w, ldw)
	blas.Gemm(blas.Trans, blas.NoTrans, k, n, m2, 1, v2, ldv2, c2, ldc2, 1, w, ldw)
	// W ← op(T)·W: Tᵀ for Qᵀ, T for Q.
	blas.Trmm(blas.Left, blas.Upper, trans, blas.NonUnit, k, n, 1, t, ldt, w, ldw)
	// C1 -= W; C2 -= V2·W.
	for j := 0; j < n; j++ {
		c1j, wj := c1[j*ldc1:j*ldc1+k], w[j*ldw:j*ldw+k]
		for i, x := range wj {
			c1j[i] -= x
		}
	}
	blas.Gemm(blas.NoTrans, blas.NoTrans, m2, n, k, -1, v2, ldv2, w, ldw, 1, c2, ldc2)
}

// ApplyQT submits tasks applying Qᵀ (from the tile QR factors) to the tiled
// matrix B in place, replaying the factorization's elimination order.
func ApplyQT[F blas.Float](s sched.Scheduler, f *QRFactors[F], b *tile.Matrix[F]) {
	if f.tree {
		applyQTTree(s, f, b)
		return
	}
	a, t := f.A, f.T
	kt := min(a.MT, a.NT)
	for k := 0; k < kt; k++ {
		k := k
		for j := 0; j < b.NT; j++ {
			j := j
			s.Submit(sched.Task{
				Name:     "unmqr",
				Priority: priority(k, kt, bandSolve),
				Reads:    []sched.Handle{a.Handle(k, k), t.Handle(k, k)},
				Writes:   []sched.Handle{b.Handle(k, j)},
				Fn: timed(solveNs, func() {
					unmqr(b.TileRows(k), b.TileCols(j), min(a.TileRows(k), a.TileCols(k)),
						a.Tile(k, k), a.TileRows(k), t.Tile(k, k), t.TileRows(k),
						b.Tile(k, j), b.TileRows(k))
				}),
			})
		}
		for i := k + 1; i < a.MT; i++ {
			i := i
			for j := 0; j < b.NT; j++ {
				j := j
				s.Submit(sched.Task{
					Name:     "tsmqr",
					Priority: priority(k, kt, bandUpdate),
					Reads:    []sched.Handle{a.Handle(i, k), t.Handle(i, k)},
					Writes:   []sched.Handle{b.Handle(k, j), b.Handle(i, j)},
					Fn: timed(updateNs, func() {
						tsmqr(blas.Trans, a.TileCols(k), a.TileRows(i), b.TileCols(j),
							a.Tile(i, k), a.TileRows(i),
							t.Tile(i, k), t.TileRows(i),
							b.Tile(k, j), b.TileRows(k),
							b.Tile(i, j), b.TileRows(i))
					}),
				})
			}
		}
	}
}

// Gels solves the least-squares problem min‖A·X − B‖ for a tall tiled
// matrix A (M ≥ N) and tiled right-hand side B (same M), in one dataflow
// graph: tile QR, apply Qᵀ to B, then solve R·X = B over the top N rows.
// The solution occupies the first N rows of B.
func Gels[F blas.Float](s sched.Scheduler, a, b *tile.Matrix[F]) *QRFactors[F] {
	if a.M < a.N {
		panic("core: Gels requires M ≥ N")
	}
	f := &QRFactors[F]{A: a, T: tile.New[F](a.MT*a.NB, a.NT*a.NB, a.NB)}
	submitQR(s, f, false)
	ApplyQT(s, f, b)
	TrsmUpper(s, a, b)
	s.Wait()
	return f
}
