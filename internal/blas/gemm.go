package blas

// Blocking parameters for the axpy (pre-packing) Gemm path, retained as the
// small-size fallback: the kc×nc block of B is streamed against full
// columns of A, keeping the active working set near L1/L2 size for float64
// (and comfortably inside it for float32).
const (
	gemmKC = 128
	gemmNC = 64
)

// minPackedVolume is the small-size cutover: products with m·n·k below this
// volume skip panel packing and use the cache-blocked axpy kernels, since
// the mc·kc + kc·nc packing traffic only amortizes once the register tile
// stays hot across many depth steps. With the AVX2 microkernel the packed
// path wins from roughly 12×12×12 up (measured); below that, pack setup
// and pool round-trips dominate. Tests override it to pin a path.
var minPackedVolume int64 = 12 * 12 * 12

// Gemm computes the general matrix-matrix product
//
//	C ← α·op(A)·op(B) + β·C
//
// where op(A) is m×k, op(B) is k×n and C is m×n, all column-major.
//
// Non-finite values propagate exactly as in the reference three-loop
// formulation: every A·B product term participates, including terms whose
// other factor is zero, so NaN and ±Inf in the operands reach C. The two
// coefficient gates follow the BLAS convention instead: β == 0 means C is
// overwritten without being read, and α == 0 means op(A)·op(B) is never
// formed.
func Gemm[T Float](transA, transB Transpose, m, n, k int, alpha T, a []T, lda int, b []T, ldb int, beta T, c []T, ldc int) {
	GemmPrepacked(transA, transB, m, n, k, alpha, a, lda, nil, b, ldb, nil, beta, c, ldc)
}

// GemmPrepacked is Gemm reading op(A) from pa and op(B) from pb where they
// are not nil: shared packed forms of the operands (see Packed), packed by
// the first product that reads them. a and b are still passed and are
// packed from as usual where a Packed was made under another blocking. A
// product Gemm runs on the axpy kernels neither makes nor reads a pack.
// The result is bitwise Gemm's.
func GemmPrepacked[T Float](transA, transB Transpose, m, n, k int, alpha T, a []T, lda int, pa *Packed[T], b []T, ldb int, pb *Packed[T], beta T, c []T, ldc int) {
	checkTrans(transA)
	checkTrans(transB)
	if transA == NoTrans {
		checkMatrix("A", m, k, a, lda)
	} else {
		checkMatrix("A", k, m, a, lda)
	}
	if transB == NoTrans {
		checkMatrix("B", k, n, b, ldb)
	} else {
		checkMatrix("B", n, k, b, ldb)
	}
	checkMatrix("C", m, n, c, ldc)
	if m == 0 || n == 0 {
		return
	}
	start := gemmMetrics.Start()

	// C ← β·C. The m·n scaling flops are charged to the dedicated
	// β-scaling counter, never to the 2mnk product counter that feeds the
	// GF/s gauge.
	if beta != 1 {
		scaleMatrix(m, n, beta, c, ldc)
		gemmScaleFlops.Add(int64(m) * int64(n))
	}
	if alpha == 0 || k == 0 {
		// No product work was done (β == 1 makes this a complete no-op);
		// charge zero product flops so metrics stay truthful.
		gemmMetrics.Stop(start, 0)
		return
	}

	// Products thinner than the register tile (n < NR, e.g. a tile times one
	// right-hand side) also take the axpy kernels: packing a whole op(A)
	// panel to produce one or two columns costs more than the product itself.
	if n < GemmBlocking().NR || int64(m)*int64(n)*int64(k) < minPackedVolume {
		gemmAxpyKernel(transA, transB, m, n, k, alpha, a, lda, b, ldb, c, ldc)
	} else {
		gemmPacked(allOfC, transA, transB, m, n, k, alpha, a, lda, pa, b, ldb, pb, c, ldc)
	}
	gemmMetrics.Stop(start, 2*int64(m)*int64(n)*int64(k))
}

// GemmAxpy is Gemm restricted to the pre-packing cache-blocked axpy
// kernels. It is the small-size path of Gemm and the baseline the packed
// kernel is benchmarked against (cmd/exabench -json); it records no
// metrics.
func GemmAxpy[T Float](transA, transB Transpose, m, n, k int, alpha T, a []T, lda int, b []T, ldb int, beta T, c []T, ldc int) {
	checkTrans(transA)
	checkTrans(transB)
	if transA == NoTrans {
		checkMatrix("A", m, k, a, lda)
	} else {
		checkMatrix("A", k, m, a, lda)
	}
	if transB == NoTrans {
		checkMatrix("B", k, n, b, ldb)
	} else {
		checkMatrix("B", n, k, b, ldb)
	}
	checkMatrix("C", m, n, c, ldc)
	if m == 0 || n == 0 {
		return
	}
	if beta != 1 {
		scaleMatrix(m, n, beta, c, ldc)
	}
	if alpha == 0 || k == 0 {
		return
	}
	gemmAxpyKernel(transA, transB, m, n, k, alpha, a, lda, b, ldb, c, ldc)
}

// scaleMatrix computes C ← β·C columnwise, writing zeros outright for
// β == 0 per the BLAS convention (C is not read, so stale NaNs die).
func scaleMatrix[T Float](m, n int, beta T, c []T, ldc int) {
	for j := 0; j < n; j++ {
		col := c[j*ldc : j*ldc+m]
		if beta == 0 {
			for i := range col {
				col[i] = 0
			}
		} else {
			for i := range col {
				col[i] *= beta
			}
		}
	}
}

// registerTile returns the register-tile shape of every packed sweep (Gemm,
// Syrk, Trmm and Trsm) for element type T under
// blocking p. MR = 8 installs the wide AVX2+FMA kernels: 8×4 for float64
// and 16×4 for float32, the same register footprint at single width. The
// float32 tile is used only where 16 rows divide MC, since a shared A pack
// lays its cache blocks out as whole slivers; otherwise, and for MR = 4,
// other element types or CPUs without AVX2+FMA, the portable 4×4 kernel
// runs. Callers take the kernel itself from kernelFor in their own frame.
func registerTile[T Float](p Blocking) (mr, nr int) {
	if p.MR == 8 && haveAvx2Fma {
		if is64[T]() {
			return 8, p.NR
		}
		if is32[T]() && p.MC%16 == 0 {
			return 16, p.NR
		}
	}
	return 4, p.NR
}

// gemmPacked is the packed, register-blocked path: kc×nc panels of op(B)
// and mc×kc panels of op(A) are packed into contiguous pooled buffers
// (normalizing all four transpose cases at pack time), then an mr×nr
// register-tile microkernel sweeps the panels under mc/kc/nc cache
// blocking. Edge tiles run through a zeroed scratch tile; the packed
// slivers themselves are zero-padded so the microkernel never branches.
// An operand with a usable shared pack (pa, pb) is read from it instead.
// For Syrk, tri (Lower or Upper) restricts the update to that triangle of
// the square C, skipping the cache blocks and register tiles outside it.
func gemmPacked[T Float](tri Uplo, transA, transB Transpose, m, n, k int, alpha T, a []T, lda int, pa *Packed[T], b []T, ldb int, pb *Packed[T], c []T, ldc int) {
	p := GemmBlocking()
	mr, nr := registerTile[T](p)
	kern := kernelFor[T](mr)
	mc, kc, nc := p.MC, p.KC, p.NC

	// A lower triangle's row blocks start at column blocks: a shared A
	// pack's mr-row slivers line up with them only if nc is a multiple of mr.
	var ap []T
	var packed int
	if tri != Lower || n <= nc || nc%mr == 0 {
		ap, packed = pa.operand(p, false, transA, a, lda, m, k)
	}
	bp, packedB := pb.operand(p, true, transB, b, ldb, k, n)
	packed += packedB
	kcEff := min(kc, k)
	var aBuf, bBuf Scratch[T]
	if ap == nil {
		aBuf = GetScratch[T](roundUp(min(mc, m), mr) * kcEff)
	}
	if bp == nil {
		bBuf = GetScratch[T](kcEff * roundUp(min(nc, n), nr))
	}
	// Edge-tile scratch lives in the pool too: a local array would escape
	// through the kern indirect call and cost one heap allocation per call.
	tBuf := GetScratch[T](maxMR * maxNR)
	for jc := 0; jc < n; jc += nc {
		nb := min(nc, n-jc)
		// Rows of C holding entries to update in columns jc…jc+nb−1.
		lo, hi := 0, m
		if tri == Lower {
			lo = jc
		} else if tri == Upper {
			hi = jc + nb
		}
		for pc := 0; pc < k; pc += kc {
			kb := min(kc, k-pc)
			bs := bBuf.Buf
			if bp != nil {
				bs = bp[jc*k+pc*roundUp(nb, nr):]
			} else {
				packB(transB, kb, nb, b, ldb, pc, jc, nr, bs)
				packed += kb * roundUp(nb, nr)
			}
			for ic := lo; ic < hi; ic += mc {
				mb := min(mc, hi-ic)
				as := aBuf.Buf
				if ap != nil {
					as = ap[pc*roundUp(m, mr)+ic*kb:]
				} else {
					packA(transA, mb, kb, a, lda, ic, pc, mr, as)
					packed += roundUp(mb, mr) * kb
				}
				macroKernel(mb, nb, kb, mr, nr, alpha, as, bs, c[ic+jc*ldc:], ldc, kern, tBuf.Buf, tri, ic-jc)
			}
		}
	}
	aBuf.Release()
	bBuf.Release()
	tBuf.Release()
	packBytes.Add(int64(packed) * sizeOf[T]())
}

// allOfC is the macroKernel triangle of a plain GEMM: every entry of the
// block is updated.
const allOfC Uplo = 0

// macroKernel sweeps the register tiles of one packed mb×kb × kb×nb block
// pair, dispatching full tiles straight into C and partial edge tiles
// through a zeroed mr×nr scratch (tmp, pool-backed, ≥ maxMR·maxNR) whose
// valid region is then accumulated.
//
// For Syrk, tri (Lower or Upper) restricts the update to that triangle of
// the whole matrix, whose entry (0,0) of the block sits off (global row
// minus global column) from the diagonal: tiles wholly outside the triangle
// are skipped, and tiles straddling the diagonal go through the scratch tile
// and accumulate only their entries inside it.
func macroKernel[T Float](mb, nb, kb, mr, nr int, alpha T, ap, bp, c []T, ldc int, kern microKernel[T], tmp []T, tri Uplo, off int) {
	for jr := 0; jr < nb; jr += nr {
		cols := min(nr, nb-jr)
		bs := bp[(jr/nr)*(kb*nr):]
		for ir := 0; ir < mb; ir += mr {
			rows := min(mr, mb-ir)
			// The tile's entries lie lo…hi diagonals below the main one.
			lo, hi := off+ir-jr-(cols-1), off+ir+rows-1-jr
			if (tri == Lower && hi < 0) || (tri == Upper && lo > 0) {
				continue
			}
			inside := tri == allOfC || (tri == Lower && lo >= 0) || (tri == Upper && hi <= 0)
			as := ap[(ir/mr)*(kb*mr):]
			if rows == mr && cols == nr && inside {
				kern(kb, as, bs, alpha, c[ir+jr*ldc:], ldc)
				continue
			}
			clear(tmp[:mr*nr])
			kern(kb, as, bs, alpha, tmp[:], mr)
			for j := 0; j < cols; j++ {
				dst := c[ir+(jr+j)*ldc:]
				src := tmp[j*mr:]
				i0, i1 := 0, rows
				if !inside {
					// Row i is on the diagonal of column j at d = 0.
					d := off + ir - jr - j
					if tri == Lower {
						i0 = max(0, -d)
					} else {
						i1 = min(rows, 1-d)
					}
				}
				for i := i0; i < i1; i++ {
					dst[i] += src[i]
				}
			}
		}
	}
}

// roundUp rounds v up to the next multiple of unit.
func roundUp(v, unit int) int {
	return (v + unit - 1) / unit * unit
}

// gemmAxpyKernel dispatches the four transpose cases of the axpy path, all
// but TT in float32 to the dot and axpy kernels (see gemmVec32).
func gemmAxpyKernel[T Float](transA, transB Transpose, m, n, k int, alpha T, a []T, lda int, b []T, ldb int, c []T, ldc int) {
	if a32, ok := any(a).([]float32); ok && (transA == NoTrans || transB == NoTrans) && vecKernels() {
		gemmVec32(transA, transB, m, n, k, float32(alpha), a32, lda, any(b).([]float32), ldb, any(c).([]float32), ldc)
		return
	}
	switch {
	case transA == NoTrans && transB == NoTrans:
		gemmNN(m, n, k, alpha, a, lda, b, ldb, c, ldc)
	case transA == NoTrans && transB == Trans:
		gemmNT(m, n, k, alpha, a, lda, b, ldb, c, ldc)
	case transA == Trans && transB == NoTrans:
		gemmTN(m, n, k, alpha, a, lda, b, ldb, c, ldc)
	default:
		gemmTT(m, n, k, alpha, a, lda, b, ldb, c, ldc)
	}
}

// gemmNN computes C += α·A·B. The kernel accumulates axpy updates of
// contiguous A columns into contiguous C columns, two k-steps at a time,
// blocked over (k, n) so the touched A panel stays cache resident. Zero
// B coefficients are NOT skipped: 0·NaN must propagate (see Gemm).
func gemmNN[T Float](m, n, k int, alpha T, a []T, lda int, b []T, ldb int, c []T, ldc int) {
	for jb := 0; jb < n; jb += gemmNC {
		nb := min(gemmNC, n-jb)
		for lb := 0; lb < k; lb += gemmKC {
			kb := min(gemmKC, k-lb)
			for j := jb; j < jb+nb; j++ {
				ccol := c[j*ldc : j*ldc+m]
				bcol := b[j*ldb:]
				l := lb
				for ; l+1 < lb+kb; l += 2 {
					b0 := alpha * bcol[l]
					b1 := alpha * bcol[l+1]
					a0 := a[l*lda : l*lda+m]
					a1 := a[(l+1)*lda : (l+1)*lda+m]
					for i := range ccol {
						ccol[i] += b0*a0[i] + b1*a1[i]
					}
				}
				if l < lb+kb {
					b0 := alpha * bcol[l]
					a0 := a[l*lda : l*lda+m]
					for i := range ccol {
						ccol[i] += b0 * a0[i]
					}
				}
			}
		}
	}
}

// gemmNT computes C += α·A·Bᵀ: B is n×k, so the k-coefficient for column j
// is B[j,l], a strided access mitigated by the same (k, n) blocking.
func gemmNT[T Float](m, n, k int, alpha T, a []T, lda int, b []T, ldb int, c []T, ldc int) {
	for jb := 0; jb < n; jb += gemmNC {
		nb := min(gemmNC, n-jb)
		for lb := 0; lb < k; lb += gemmKC {
			kb := min(gemmKC, k-lb)
			for j := jb; j < jb+nb; j++ {
				ccol := c[j*ldc : j*ldc+m]
				l := lb
				for ; l+1 < lb+kb; l += 2 {
					b0 := alpha * b[j+l*ldb]
					b1 := alpha * b[j+(l+1)*ldb]
					a0 := a[l*lda : l*lda+m]
					a1 := a[(l+1)*lda : (l+1)*lda+m]
					for i := range ccol {
						ccol[i] += b0*a0[i] + b1*a1[i]
					}
				}
				if l < lb+kb {
					b0 := alpha * b[j+l*ldb]
					a0 := a[l*lda : l*lda+m]
					for i := range ccol {
						ccol[i] += b0 * a0[i]
					}
				}
			}
		}
	}
}

// gemmTN computes C += α·Aᵀ·B: C[i,j] = α·A[:,i]ᵀB[:,j], dot products over
// contiguous columns of both operands.
func gemmTN[T Float](m, n, k int, alpha T, a []T, lda int, b []T, ldb int, c []T, ldc int) {
	for jb := 0; jb < n; jb += gemmNC {
		nb := min(gemmNC, n-jb)
		for ib := 0; ib < m; ib += gemmNC {
			mb := min(gemmNC, m-ib)
			for j := jb; j < jb+nb; j++ {
				bcol := b[j*ldb : j*ldb+k]
				ccol := c[j*ldc:]
				for i := ib; i < ib+mb; i++ {
					acol := a[i*lda : i*lda+k]
					var s T
					for l, av := range acol {
						s += av * bcol[l]
					}
					ccol[i] += alpha * s
				}
			}
		}
	}
}

// gemmTT computes C += α·Aᵀ·Bᵀ = α·(B·A)ᵀ. It streams axpy updates of B
// columns into a pooled row of C per A column; strided C writes are
// blocked. Zero A coefficients are NOT skipped so 0·NaN propagates.
func gemmTT[T Float](m, n, k int, alpha T, a []T, lda int, b []T, ldb int, c []T, ldc int) {
	// C[i,j] = α Σ_l A[l,i]·B[j,l]. Iterate i over columns of A
	// (contiguous), then l down that column, scattering into row i of C.
	rowBuf := GetScratch[T](n)
	row := rowBuf.Buf
	for i := 0; i < m; i++ {
		acol := a[i*lda : i*lda+k]
		for j := range row {
			row[j] = 0
		}
		for l, av := range acol {
			bcol := b[l*ldb : l*ldb+n]
			for j, bv := range bcol {
				row[j] += av * bv
			}
		}
		for j, v := range row {
			c[i+j*ldc] += alpha * v
		}
	}
	rowBuf.Release()
}
