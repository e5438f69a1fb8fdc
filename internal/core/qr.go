package core

import (
	"exadla/internal/blas"
	"exadla/internal/lapack"
	"exadla/internal/sched"
	"exadla/internal/tile"
)

// The tile QR drivers are one-line walks of the OpQR and OpQRTree programs
// (program.go) and their solve (solve.go); this file holds the QR tile
// kernels.

// QR computes the tile QR factorization of A (m×n, any shape) in the flat
// (PLASMA-style) elimination order: each subdiagonal tile is folded into
// the panel's triangular factor with a tsqrt kernel as soon as its
// dependences allow. The returned factors reference A in place.
func QR[F blas.Float](s sched.Scheduler, a *tile.Matrix[F]) *Factors[F] {
	return qr(s, OpQR, a, nil)
}

// QRTree computes the tile QR factorization with a binary reduction tree
// per panel (the CAQR elimination order): every tile of the panel is
// QR-factored locally, then the triangular factors are merged pairwise up
// a log₂-depth tree. Compared to the flat order, the panel's critical path
// drops from Θ(MT) to Θ(log MT) — the communication-avoiding trade the
// keynote advocates for tall matrices — at the cost of more reflector
// storage and slightly more flops in the merge kernels. On a single tile
// column (nb ≥ N) it is TSQR.
func QRTree[F blas.Float](s sched.Scheduler, a *tile.Matrix[F]) *Factors[F] {
	return qr(s, OpQRTree, a, nil)
}

// Gels solves the least-squares problem min‖A·X − B‖ for a tall tiled
// matrix A (M ≥ N) and tiled right-hand side B (same M), in one dataflow
// graph: tile QR, apply Qᵀ to B, then solve R·X = B over the top N rows.
// The solution occupies the first N rows of B.
func Gels[F blas.Float](s sched.Scheduler, a, b *tile.Matrix[F]) *Factors[F] {
	return qr(s, OpQR, a, b)
}

// qr is Factor for the QR drivers, which have no error return: the QR
// kernels report none, so an error is a scheduler's task failure, and it
// panics as Runtime.Wait does.
func qr[F blas.Float](s sched.Scheduler, op string, a, b *tile.Matrix[F]) *Factors[F] {
	f, err := Factor(s, op, a, b, false)
	if err != nil {
		panic(err)
	}
	return f
}

// ApplyQT submits tasks applying Qᵀ from the tile QR factors to the tiled
// matrix B (A's row tiling) in place: it replays the factorization's panel
// steps in its order, each geqrt, tsqrt or ttqrt as the unmqr, tsmqr or
// ttmqr that applies its reflectors, on every tile column of B — the first
// sweep of the QR solve.
func ApplyQT[F blas.Float](s sched.Scheduler, f *Factors[F], b *tile.Matrix[F]) {
	submitSolve(s, f, b, &errState{}, sweepQT)
}

// qrApply applies, as kind — unmqr, tsmqr or ttmqr — the Qᵀ of the
// reflectors panel step k left in tile (i, k) of a, with their block
// factors in the same tile of t, to tile column j of b. b may be a itself
// or a right-hand side with a's row tiling.
func qrApply[F blas.Float](kind string, a, t *tile.Matrix[F], k, i int, b *tile.Matrix[F], j int) {
	switch kind {
	case "unmqr":
		unmqr(b.TileRows(i), b.TileCols(j), min(a.TileRows(i), a.TileCols(k)),
			a.Tile(i, k), a.TileRows(i), t.Tile(i, k), t.TileRows(i),
			b.Tile(i, j), b.TileRows(i))
	case "tsmqr":
		tsmqr(blas.Trans, a.TileCols(k), a.TileRows(i), b.TileCols(j),
			a.Tile(i, k), a.TileRows(i),
			t.Tile(i, k), t.TileRows(i),
			b.Tile(k, j), b.TileRows(k),
			b.Tile(i, j), b.TileRows(i))
	case "ttmqr":
		p := treePartner(k, i)
		ttmqr(blas.Trans, a.TileCols(k), min(a.TileRows(i), a.TileCols(k)), b.TileCols(j),
			a.Tile(i, k), a.TileRows(i),
			t.Tile(i, k), t.TileRows(i),
			b.Tile(p, j), b.TileRows(p),
			b.Tile(i, j), b.TileRows(i))
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

// ttqrt computes the structured QR of two stacked triangular factors: R1
// (n×n upper, in the top of tile r1) and R2 (upper trapezoid with m2 ≤ n
// triangle rows, in the upper region of tile r2). The reflector zeroing
// R2's column j has an implicit 1 at R1's row j and a dense tail only in
// R2's rows 0..min(j, m2-1), so the kernel reads and writes nothing below
// R2's diagonal — the local GEQRT reflectors stored there are preserved.
// On return R1 holds the merged R, R2's upper region holds the merge
// reflector tails, and t holds the n×n block-reflector factor.
func ttqrt[F blas.Float](n, m2 int, r1 []F, ldr1 int, r2 []F, ldr2 int, t []F, ldt int) {
	ws := blas.GetScratch[F](n)
	defer ws.Release()
	w := ws.Buf
	for j := 0; j < n; j++ {
		lenj := min(j+1, m2)
		beta, tau := lapack.Larfg(1+lenj, r1[j+j*ldr1], r2[j*ldr2:j*ldr2+lenj], 1)
		r1[j+j*ldr1] = beta
		v2 := r2[j*ldr2 : j*ldr2+lenj]
		if j+1 < n && tau != 0 {
			nc := n - j - 1
			// w = R1[j, j+1:] + V2ᵀ·R2[0:lenj, j+1:].
			for c := 0; c < nc; c++ {
				w[c] = r1[j+(j+1+c)*ldr1]
			}
			blas.Gemv(blas.Trans, lenj, nc, 1, r2[(j+1)*ldr2:], ldr2, v2, 1, 1, w[:nc], 1)
			for c := 0; c < nc; c++ {
				r1[j+(j+1+c)*ldr1] -= tau * w[c]
			}
			blas.Ger(lenj, nc, -tau, v2, 1, w[:nc], 1, r2[(j+1)*ldr2:], ldr2)
		}
		// T column j: T[0:j, j] = −tau·T[0:j,0:j]·(V2[:,0:j]ᵀ·v2_j); column
		// c of V2 has min(c+1, m2) stored entries.
		for c := 0; c < j; c++ {
			lc := min(min(c+1, m2), lenj)
			var s F
			for r := 0; r < lc; r++ {
				s += r2[r+c*ldr2] * v2[r]
			}
			t[c+j*ldt] = -tau * s
		}
		if j > 0 {
			blas.Trmv(blas.Upper, blas.NoTrans, blas.NonUnit, j, t, ldt, t[j*ldt:], 1)
		}
		t[j+j*ldt] = tau
	}
}

// ttmqr applies a ttqrt block reflector to the stacked pair [C1; C2]: C1's
// top n rows and C2's top m2 rows participate; everything else — including
// C2's rows below the trapezoid — is untouched. trans selects Qᵀ or Q.
func ttmqr[F blas.Float](trans blas.Transpose, n, m2, nc int, r2 []F, ldr2 int, t []F, ldt int, c1 []F, ldc1 int, c2 []F, ldc2 int) {
	if n == 0 || nc == 0 {
		return
	}
	// W = C1[0:n] + V2ᵀ·C2[0:m2], accumulating row j of W from the stored
	// tail of reflector j (rows 0..min(j, m2-1) of R2's column j).
	ws := blas.GetScratch[F](n * nc)
	defer ws.Release()
	w := ws.Buf
	lapack.Lacpy(lapack.General, n, nc, c1, ldc1, w, n)
	for j := 0; j < n; j++ {
		lenj := min(j+1, m2)
		blas.Gemv(blas.Trans, lenj, nc, 1, c2, ldc2, r2[j*ldr2:j*ldr2+lenj], 1, 1, w[j:], n)
	}
	blas.Trmm(blas.Left, blas.Upper, trans, blas.NonUnit, n, nc, 1, t, ldt, w, n)
	// C1 -= W; C2 -= V2·W.
	for col := 0; col < nc; col++ {
		for i := 0; i < n; i++ {
			c1[i+col*ldc1] -= w[i+col*n]
		}
	}
	for j := 0; j < n; j++ {
		lenj := min(j+1, m2)
		blas.Ger(lenj, nc, -1, r2[j*ldr2:j*ldr2+lenj], 1, w[j:], n, c2, ldc2)
	}
}
