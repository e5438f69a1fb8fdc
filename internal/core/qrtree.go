package core

import (
	"exadla/internal/blas"
	"exadla/internal/lapack"
	"exadla/internal/sched"
	"exadla/internal/tile"
)

// QRTree computes the tile QR factorization with a binary reduction tree
// per panel (the CAQR elimination order): every tile of the panel is
// QR-factored locally, then the triangular factors are merged pairwise up
// a log₂-depth tree. Compared to the flat order, the panel's critical path
// drops from Θ(MT) to Θ(log MT) — the communication-avoiding trade the
// keynote advocates for tall matrices — at the cost of more reflector
// storage and slightly more flops in the merge kernels.
//
// The returned factors record the elimination plan so ApplyQT replays the
// right order for either variant.
func QRTree[F blas.Float](s sched.Scheduler, a *tile.Matrix[F]) *QRFactors[F] {
	f := &QRFactors[F]{
		A:    a,
		T:    tile.New[F](a.MT*a.NB, a.NT*a.NB, a.NB),
		T2:   tile.New[F](a.MT*a.NB, a.NT*a.NB, a.NB),
		tree: true,
	}
	submitQRTree(s, f)
	s.Wait()
	return f
}

// GelsTree is Gels using the tree elimination order.
func GelsTree[F blas.Float](s sched.Scheduler, a, b *tile.Matrix[F]) *QRFactors[F] {
	if a.M < a.N {
		panic("core: GelsTree requires M ≥ N")
	}
	f := &QRFactors[F]{
		A:    a,
		T:    tile.New[F](a.MT*a.NB, a.NT*a.NB, a.NB),
		T2:   tile.New[F](a.MT*a.NB, a.NT*a.NB, a.NB),
		tree: true,
	}
	submitQRTree(s, f)
	ApplyQT(s, f, b)
	TrsmUpper(s, a, b)
	s.Wait()
	return f
}

// treePairs enumerates the binary-tree merge schedule over rows k..MT-1:
// rounds of (i1, i2) pairs where i2's triangle is folded into i1's.
func treePairs(k, mt int) [][2]int {
	var pairs [][2]int
	for dist := 1; k+dist < mt; dist *= 2 {
		for idx := k; idx+dist < mt; idx += 2 * dist {
			pairs = append(pairs, [2]int{idx, idx + dist})
		}
	}
	return pairs
}

func submitQRTree[F blas.Float](s sched.Scheduler, f *QRFactors[F]) {
	a, t, t2 := f.A, f.T, f.T2
	kt := min(a.MT, a.NT)
	for k := 0; k < kt; k++ {
		k := k
		// Local QR of every panel tile, and local Qᵀ applied to its row.
		for i := k; i < a.MT; i++ {
			i := i
			s.Submit(sched.Task{
				Name:     "geqrt",
				Priority: priority(k, kt, bandPanel),
				Writes:   []sched.Handle{a.Handle(i, k), t.Handle(i, k)},
				Fn: func() {
					lapack.Geqrt(a.TileRows(i), a.TileCols(k), a.Tile(i, k), a.TileRows(i), t.Tile(i, k), t.TileRows(i))
				},
			})
			for j := k + 1; j < a.NT; j++ {
				j := j
				s.Submit(sched.Task{
					Name:     "unmqr",
					Priority: priority(j, kt, bandSolve),
					Reads:    []sched.Handle{a.Handle(i, k), t.Handle(i, k)},
					Writes:   []sched.Handle{a.Handle(i, j)},
					Fn: func() {
						unmqr(a.TileRows(i), a.TileCols(j), min(a.TileRows(i), a.TileCols(k)),
							a.Tile(i, k), a.TileRows(i), t.Tile(i, k), t.TileRows(i),
							a.Tile(i, j), a.TileRows(i))
					},
				})
			}
		}
		// Pairwise triangle merges up the tree. The TTQRT/TTMQR kernels
		// operate only on the (trapezoidal) R region in the second tile's
		// upper triangle — its strictly-lower storage still holds the
		// local GEQRT reflectors and must survive for ApplyQT.
		for _, p := range treePairs(k, a.MT) {
			i1, i2 := p[0], p[1]
			s.Submit(sched.Task{
				Name:     "ttqrt",
				Priority: priority(k, kt, bandPanel),
				Writes:   []sched.Handle{a.Handle(i1, k), a.Handle(i2, k), t2.Handle(i2, k)},
				Fn: func() {
					ttqrt(a.TileCols(k), min(a.TileRows(i2), a.TileCols(k)),
						a.Tile(i1, k), a.TileRows(i1),
						a.Tile(i2, k), a.TileRows(i2),
						t2.Tile(i2, k), t2.TileRows(i2))
				},
			})
			for j := k + 1; j < a.NT; j++ {
				j := j
				s.Submit(sched.Task{
					Name:     "ttmqr",
					Priority: priority(j, kt, bandUpdate),
					Reads:    []sched.Handle{a.Handle(i2, k), t2.Handle(i2, k)},
					Writes:   []sched.Handle{a.Handle(i1, j), a.Handle(i2, j)},
					Fn: func() {
						ttmqr(blas.Trans, a.TileCols(k), min(a.TileRows(i2), a.TileCols(k)), a.TileCols(j),
							a.Tile(i2, k), a.TileRows(i2),
							t2.Tile(i2, k), t2.TileRows(i2),
							a.Tile(i1, j), a.TileRows(i1),
							a.Tile(i2, j), a.TileRows(i2))
					},
				})
			}
		}
	}
}

// applyQTTree replays the tree factorization's transforms on B.
func applyQTTree[F blas.Float](s sched.Scheduler, f *QRFactors[F], b *tile.Matrix[F]) {
	a, t, t2 := f.A, f.T, f.T2
	kt := min(a.MT, a.NT)
	for k := 0; k < kt; k++ {
		k := k
		for i := k; i < a.MT; i++ {
			i := i
			for j := 0; j < b.NT; j++ {
				j := j
				s.Submit(sched.Task{
					Name:     "unmqr",
					Priority: priority(k, kt, bandSolve),
					Reads:    []sched.Handle{a.Handle(i, k), t.Handle(i, k)},
					Writes:   []sched.Handle{b.Handle(i, j)},
					Fn: func() {
						unmqr(b.TileRows(i), b.TileCols(j), min(a.TileRows(i), a.TileCols(k)),
							a.Tile(i, k), a.TileRows(i), t.Tile(i, k), t.TileRows(i),
							b.Tile(i, j), b.TileRows(i))
					},
				})
			}
		}
		for _, p := range treePairs(k, a.MT) {
			i1, i2 := p[0], p[1]
			for j := 0; j < b.NT; j++ {
				j := j
				s.Submit(sched.Task{
					Name:     "ttmqr",
					Priority: priority(k, kt, bandUpdate),
					Reads:    []sched.Handle{a.Handle(i2, k), t2.Handle(i2, k)},
					Writes:   []sched.Handle{b.Handle(i1, j), b.Handle(i2, j)},
					Fn: func() {
						ttmqr(blas.Trans, a.TileCols(k), min(a.TileRows(i2), a.TileCols(k)), b.TileCols(j),
							a.Tile(i2, k), a.TileRows(i2),
							t2.Tile(i2, k), t2.TileRows(i2),
							b.Tile(i1, j), b.TileRows(i1),
							b.Tile(i2, j), b.TileRows(i2))
					},
				})
			}
		}
	}
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
	w := make([]F, n)
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
	w := make([]F, n*nc)
	lapack.Lacpy(lapack.General, n, nc, c1, ldc1, w, n)
	for j := 0; j < n; j++ {
		lenj := min(j+1, m2)
		blas.Gemv(blas.Trans, lenj, nc, 1, c2, ldc2, r2[j*ldr2:j*ldr2+lenj], 1, 1, w[j:], n)
	}
	tt := blas.NoTrans
	if trans == blas.Trans {
		tt = blas.Trans
	}
	blas.Trmm(blas.Left, blas.Upper, tt, blas.NonUnit, n, nc, 1, t, ldt, w, n)
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

// TreePairsForTest exposes the merge schedule for structural tests.
func TreePairsForTest(k, mt int) [][2]int { return treePairs(k, mt) }
