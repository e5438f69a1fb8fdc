package blas

// Syrk computes the symmetric rank-k update
//
//	C ← α·A·Aᵀ + β·C   (trans == NoTrans, A is n×k)
//	C ← α·Aᵀ·A + β·C   (trans == Trans,   A is k×n)
//
// where only the uplo triangle of the n×n matrix C is referenced and
// updated. The product is one packed GEMM sweep, op(A) packed as both
// operands, that skips the cache blocks and register tiles outside the
// triangle.
func Syrk[T Float](uplo Uplo, trans Transpose, n, k int, alpha T, a []T, lda int, beta T, c []T, ldc int) {
	SyrkPrepacked(uplo, trans, n, k, alpha, a, lda, nil, nil, beta, c, ldc)
}

// SyrkPrepacked is Syrk reading op(A) as the A operand of its sweep from pa
// and op(A)ᵀ as the B operand from pb where they are not nil — the packed
// forms Gemm reads op(A) from as its A operand and op(A)ᵀ as its B operand
// (see Packed). The result is bitwise Syrk's.
func SyrkPrepacked[T Float](uplo Uplo, trans Transpose, n, k int, alpha T, a []T, lda int, pa, pb *Packed[T], beta T, c []T, ldc int) {
	checkUplo(uplo)
	checkTrans(trans)
	if trans == NoTrans {
		checkMatrix("A", n, k, a, lda)
	} else {
		checkMatrix("A", k, n, a, lda)
	}
	checkMatrix("C", n, n, c, ldc)
	if n == 0 {
		return
	}
	start := syrkMetrics.Start()

	// Scale the referenced triangle of C.
	if beta != 1 {
		for j := 0; j < n; j++ {
			lo, hi := 0, j+1
			if uplo == Lower {
				lo, hi = j, n
			}
			col := c[j*ldc:]
			if beta == 0 {
				for i := lo; i < hi; i++ {
					col[i] = 0
				}
			} else {
				for i := lo; i < hi; i++ {
					col[i] *= beta
				}
			}
		}
	}
	if alpha == 0 || k == 0 {
		// No product work performed; charge zero so GF/s stays truthful.
		syrkMetrics.Stop(start, 0)
		return
	}

	// op(A)ᵀ[l,j] = op(A)[j,l]: the B operand reads A with the other transpose.
	gemmPacked(uplo, trans, flipTrans(trans), n, n, k, alpha, a, lda, pa, a, lda, pb, c, ldc)
	syrkMetrics.Stop(start, int64(n)*int64(n+1)*int64(k))
}

// Trmm computes B ← α·op(A)·B (side == Left) or B ← α·B·op(A)
// (side == Right) in place, where A is triangular and B is m×n. The
// product is one packed sweep on the GEMM microkernel (see trmmPacked).
// Fewer vectors than the register tile has rows are multiplied one at a
// time with Trmv instead: packing the triangle would cost more than the
// product.
func Trmm[T Float](side Side, uplo Uplo, transA Transpose, diag Diag, m, n int, alpha T, a []T, lda int, b []T, ldb int) {
	checkSide(side)
	checkUplo(uplo)
	checkTrans(transA)
	checkDiag(diag)
	na := m
	if side == Right {
		na = n
	}
	checkMatrix("A", na, na, a, lda)
	checkMatrix("B", m, n, b, ldb)
	if m == 0 || n == 0 {
		return
	}
	start := trmmMetrics.Start()
	if alpha == 0 {
		scaleMatrix(m, n, 0, b, ldb)
		trmmMetrics.Stop(start, 0)
		return
	}
	// Every case is nv vectors multiplied by the triangle U: on the Left
	// they are B's columns and U = op(A); on the Right B·op(A) is
	// (op(A)ᵀ·Bᵀ)ᵀ, so they are B's rows and U is op(A) with the other
	// transpose. The vectors are the columns of V = opV(B), na×nv.
	opU, opV, nv := transA, NoTrans, n
	if side == Right {
		opU, opV, nv = flipTrans(transA), Trans, m
	}
	if mr, nr := registerTile[T](GemmBlocking()); nv < mr {
		// Vector i's element p sits at b[i·step + p·inc].
		step, inc := ldb, 1
		if side == Right {
			step, inc = 1, ldb
		}
		for i := 0; i < nv; i++ {
			Trmv(uplo, opU, diag, na, a, lda, b[i*step:], inc)
			if alpha != 1 {
				Scal(na, alpha, b[i*step:], inc)
			}
		}
	} else {
		trmmPacked(uplo, opU, diag, na, nv, alpha, a, lda, opV, b, ldb, mr, nr)
	}
	trmmMetrics.Stop(start, int64(m)*int64(n)*int64(na))
}

// flipTrans returns the other transpose.
func flipTrans(t Transpose) Transpose {
	if t == Trans {
		return NoTrans
	}
	return Trans
}

// trmmPacked computes C = α·U·V for the na×na triangle U = opU(A) and the
// na×nv matrix V = opV(B), then copies C over V. It is gemmPacked's
// jc/pc/ic sweep with U as the A operand, packed by packTri with zeros
// outside the triangle and ones on a unit diagonal, and with every mr-row
// sliver's depth clipped to the columns its triangle rows span. C goes to
// a zeroed pooled buffer padded to whole register tiles, so no tile needs
// an edge path, and every product reads the caller's unmodified V.
func trmmPacked[T Float](uplo Uplo, opU Transpose, diag Diag, na, nv int, alpha T, a []T, lda int, opV Transpose, b []T, ldb, mr, nr int) {
	p := GemmBlocking()
	kern := kernelFor[T](mr)
	mc, kc, nc := p.MC, p.KC, p.NC
	upper := (uplo == Upper) == (opU == NoTrans)

	ldc := roundUp(na, mr)
	cBuf := GetScratch[T](ldc * roundUp(nv, nr))
	c := cBuf.Buf
	clear(c)
	kcEff := min(kc, na)
	aBuf := GetScratch[T](roundUp(min(mc, na), mr) * kcEff)
	bBuf := GetScratch[T](kcEff * roundUp(min(nc, nv), nr))
	packed := 0
	for jc := 0; jc < nv; jc += nc {
		nb := min(nc, nv-jc)
		for pc := 0; pc < na; pc += kc {
			kb := min(kc, na-pc)
			packB(opV, kb, nb, b, ldb, pc, jc, nr, bBuf.Buf)
			packed += kb * roundUp(nb, nr)
			// Rows with triangle entries at depths pc…pc+kb−1, from a
			// register-tile boundary.
			lo, hi := 0, pc+kb
			if !upper {
				lo, hi = pc/mr*mr, na
			}
			for ic := lo; ic < hi; ic += mc {
				mb := min(mc, hi-ic)
				packTri(upper, opU, diag, mb, kb, a, lda, ic, pc, mr, aBuf.Buf)
				for jr := 0; jr < nb; jr += nr {
					bs := bBuf.Buf[(jr/nr)*(kb*nr):]
					for ir := 0; ir < mb; ir += mr {
						d0, d1 := triDepth(upper, ic+ir, mr, pc, kb)
						if d0 < d1 {
							as := aBuf.Buf[(ir/mr)*(kb*mr):]
							kern(d1-d0, as[d0*mr:], bs[d0*nr:], alpha, c[ic+ir+(jc+jr)*ldc:], ldc)
						}
					}
				}
			}
		}
	}
	for i := 0; i < nv; i++ {
		ci := c[i*ldc : i*ldc+na]
		if opV == NoTrans {
			copy(b[i*ldb:i*ldb+na], ci)
		} else {
			for k, x := range ci {
				b[i+k*ldb] = x
			}
		}
	}
	cBuf.Release()
	aBuf.Release()
	bBuf.Release()
	packBytes.Add(int64(packed) * sizeOf[T]())
}

// triDepth returns the depths d0…d1−1 of the block starting at depth l0,
// kb long, at which rows r0…r0+mr−1 of an upper or lower triangle can hold
// entries; d0 ≥ d1 means none.
func triDepth(upper bool, r0, mr, l0, kb int) (d0, d1 int) {
	if upper {
		return max(0, r0-l0), kb
	}
	return 0, min(kb, r0+mr-l0)
}

// packTri packs rows i0…i0+mb−1, depths l0…l0+kb−1 of the triangle U =
// opU(A) (upper or lower as upper says) into mr-row slivers laid out as
// packA lays them out. Only the depths triDepth gives each sliver are
// written, the only ones the sweep reads; they hold zeros outside the
// triangle and ones on a unit diagonal, and no element of A outside the
// triangle is read. Like packA it reads A down its columns: by depth for
// NoTrans, by row of U for Trans.
func packTri[T Float](upper bool, opU Transpose, diag Diag, mb, kb int, a []T, lda, i0, l0, mr int, dst []T) {
	for s := 0; s*mr < mb; s++ {
		r0 := i0 + s*mr
		rows := min(mr, mb-s*mr)
		sl := dst[s*kb*mr:]
		d0, d1 := triDepth(upper, r0, mr, l0, kb)
		if d0 >= d1 {
			continue
		}
		clear(sl[d0*mr : d1*mr])
		// Row r0+i meets the diagonal at depth l = r0+i−l0; the strict
		// triangle is i < l−(r0−l0) (upper) or i > l−(r0−l0) (lower).
		if opU == NoTrans {
			for l := d0; l < d1; l++ {
				k := l0 + l - r0
				lo, hi := 0, min(rows, k)
				if !upper {
					lo, hi = max(0, k+1), rows
				}
				src, d := a[r0+(l0+l)*lda:], sl[l*mr:]
				for i := lo; i < hi; i++ {
					d[i] = src[i]
				}
			}
		} else {
			for i := 0; i < rows; i++ {
				k := r0 + i - l0
				lo, hi := max(d0, k+1), d1
				if !upper {
					lo, hi = d0, min(d1, k)
				}
				src := a[l0+(r0+i)*lda:]
				for l := lo; l < hi; l++ {
					sl[l*mr+i] = src[l]
				}
			}
		}
		for i := 0; i < rows; i++ {
			if k := r0 + i - l0; k >= d0 && k < d1 {
				sl[k*mr+i] = 1
				if diag == NonUnit {
					sl[k*mr+i] = a[(r0+i)*(lda+1)]
				}
			}
		}
	}
}

// Trsm solves one of the triangular systems
//
//	op(A)·X = α·B   (side == Left)
//	X·op(A) = α·B   (side == Right)
//
// in place: X overwrites the m×n matrix B. A is m×m (Left) or n×n (Right).
// The solve is one packed sweep on the GEMM microkernel (see trsmPacked).
// Fewer right-hand sides than the register tile has rows are solved one
// vector at a time with Trsv instead: packing the triangle would cost more
// than the solve.
func Trsm[T Float](side Side, uplo Uplo, transA Transpose, diag Diag, m, n int, alpha T, a []T, lda int, b []T, ldb int) {
	checkSide(side)
	checkUplo(uplo)
	checkTrans(transA)
	checkDiag(diag)
	na := m
	if side == Right {
		na = n
	}
	checkMatrix("A", na, na, a, lda)
	checkMatrix("B", m, n, b, ldb)
	if m == 0 || n == 0 {
		return
	}
	start := trsmMetrics.Start()
	if alpha != 1 {
		for j := 0; j < n; j++ {
			col := b[j*ldb : j*ldb+m]
			if alpha == 0 {
				for i := range col {
					col[i] = 0
				}
			} else {
				Scal(m, alpha, col, 1)
			}
		}
		if alpha == 0 {
			// B was zeroed without any solve; no product flops were spent.
			trsmMetrics.Stop(start, 0)
			return
		}
	}
	// Every case is nrhs independent row vectors solving y·U = c: on the
	// Right they are B's rows and U = op(A); on the Left op(A)·X = B is
	// Xᵀ·op(A)ᵀ = Bᵀ, so they are B's columns and U is op(A) with the other
	// transpose. Vector i's element p sits at b[i·step + p·inc]. As a column,
	// yᵀ solves Uᵀ·yᵀ = cᵀ: a Trsv with opV, the other transpose of opU.
	opU, opV, nrhs, step, inc := transA, flipTrans(transA), m, 1, ldb
	if side == Left {
		opU, opV, nrhs, step, inc = flipTrans(transA), transA, n, ldb, 1
	}
	if mr, nr := registerTile[T](GemmBlocking()); nrhs < mr {
		for i := 0; i < nrhs; i++ {
			Trsv(uplo, opV, diag, na, a, lda, b[i*step:], inc)
		}
	} else {
		trsmPacked(uplo, opU, diag, na, nrhs, a, lda, b, step, inc, mr, nr)
	}
	trsmMetrics.Stop(start, int64(m)*int64(n)*int64(na))
}

// trsmPacked solves y·U = c in place for nrhs row vectors against the
// na×na triangle U = opU(A), vector i's element p at c[i·step + p·inc], as
// a BLIS-style sweep on the mr×nr GEMM microkernel. U is packed once, in solve
// order (backwards for a lower triangle, which makes it upper), as nr-wide
// column slivers whose depth runs down to and across the diagonal block
// and whose diagonal holds reciprocals. Each mr-tall sliver of vectors
// then walks the nr-wide column blocks in solve order: a block takes its
// update from the positions already solved through the microkernel
// (α = −1, depth = positions solved), a small substitution solves the
// block, and the solution is appended to the packed vectors that feed the
// next block — so every solved element is packed exactly once, by the
// solve that produced it.
func trsmPacked[T Float](uplo Uplo, opU Transpose, diag Diag, na, nrhs int, a []T, lda int, c []T, step, inc, mr, nr int) {
	kern := kernelFor[T](mr)
	// Solve position p is position π(p) of the system: π(p) = p for an
	// upper U, na−1−p for a lower one. V[q,r] = U[π(q),π(r)] is then upper
	// and sits at a[a0 + q·aq + r·ar]; position p of vector 0 at c[c0 + p·cp].
	aq, ar := 1, lda
	if opU == Trans {
		aq, ar = lda, 1
	}
	a0, c0, cp := 0, 0, inc
	if (uplo == Upper) != (opU == NoTrans) {
		a0, aq, ar = (na-1)*(1+lda), -aq, -ar
		c0, cp = (na-1)*inc, -inc
	}

	// Sliver b (columns r0 = b·nr …) starts at nr²·b(b+1)/2 and is row-major:
	// vs[q·nr + j] = V[q, r0+j] for q < r0+nr, zero below the diagonal and
	// in columns past na.
	nblk := (na + nr - 1) / nr
	vBuf := GetScratch[T](nr * nr * nblk * (nblk + 1) / 2)
	for b, r0 := 0, 0; r0 < na; b, r0 = b+1, r0+nr {
		w := min(nr, na-r0)
		vs := vBuf.Buf[nr*nr*b*(b+1)/2:]
		for q := 0; q < r0; q++ {
			d := vs[q*nr : q*nr+nr]
			src := a0 + q*aq + r0*ar
			for j := 0; j < w; j++ {
				d[j] = a[src+j*ar]
			}
			clear(d[w:])
		}
		for k := 0; k < w; k++ {
			d := vs[(r0+k)*nr : (r0+k)*nr+nr]
			clear(d)
			src := a0 + (r0+k)*(aq+ar)
			d[k] = 1
			if diag == NonUnit {
				d[k] = 1 / a[src]
			}
			for j := k + 1; j < w; j++ {
				d[j] = a[src+(j-k)*ar]
			}
		}
	}

	// The solved positions of the current vectors, as the A operand of the
	// update: y[p·mr + i] = Y[i0+i, π(p)].
	yBuf := GetScratch[T](na * mr)
	tBuf := GetScratch[T](maxMR * maxNR)
	y, t := yBuf.Buf, tBuf.Buf[:mr*nr]
	for i0 := 0; i0 < nrhs; i0 += mr {
		h := min(mr, nrhs-i0)
		for b, r0 := 0, 0; r0 < na; b, r0 = b+1, r0+nr {
			w := min(nr, na-r0)
			vs := vBuf.Buf[nr*nr*b*(b+1)/2:]
			// t ← −Y[vectors, 0:r0]·V[0:r0, block], then C[vectors, block] + t
			// is solved against the block's diagonal triangle.
			clear(t)
			if r0 > 0 {
				kern(r0, y, vs, -1, t, mr)
			}
			if w == 4 {
				// The full block, unrolled so that a vector's four positions
				// stay in registers.
				v0, v1, v2 := vs[r0*nr:], vs[(r0+1)*nr:], vs[(r0+2)*nr:]
				d0, d1, d2, d3 := v0[0], v1[1], v2[2], vs[(r0+3)*nr+3]
				u01, u02, u03, u12, u13, u23 := v0[1], v0[2], v0[3], v1[2], v1[3], v2[3]
				y0, y1, y2, y3 := y[r0*mr:][:h], y[(r0+1)*mr:][:h], y[(r0+2)*mr:][:h], y[(r0+3)*mr:][:h]
				t0, t1, t2, t3 := t[:h], t[mr:][:h], t[2*mr:][:h], t[3*mr:][:h]
				for i := range t0 {
					ci := c0 + r0*cp + (i0+i)*step
					x0 := (t0[i] + c[ci]) * d0
					x1 := (t1[i] + c[ci+cp] - u01*x0) * d1
					x2 := (t2[i] + c[ci+2*cp] - u02*x0 - u12*x1) * d2
					x3 := (t3[i] + c[ci+3*cp] - u03*x0 - u13*x1 - u23*x2) * d3
					y0[i], y1[i], y2[i], y3[i] = x0, x1, x2, x3
					c[ci], c[ci+cp], c[ci+2*cp], c[ci+3*cp] = x0, x1, x2, x3
				}
				continue
			}
			for j := 0; j < w; j++ {
				tj := t[j*mr : j*mr+h]
				cj := c[c0+(r0+j)*cp+i0*step:]
				for i := range tj {
					tj[i] += cj[i*step]
				}
			}
			// Substitution inside the block: position r0+k is solved once the
			// block's earlier positions have been subtracted from it.
			for k := 0; k < w; k++ {
				v := vs[(r0+k)*nr : (r0+k)*nr+nr]
				yk := y[(r0+k)*mr : (r0+k)*mr+h]
				ck := c[c0+(r0+k)*cp+i0*step:]
				for i, s := range t[k*mr : k*mr+h] {
					x := s * v[k]
					yk[i] = x
					ck[i*step] = x
				}
				for j := k + 1; j < w; j++ {
					tj := t[j*mr : j*mr+h]
					for i, x := range yk {
						tj[i] -= v[j] * x
					}
				}
			}
		}
	}
	vBuf.Release()
	yBuf.Release()
	tBuf.Release()
}
