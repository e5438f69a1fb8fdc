package blas

// Unit-stride level-1 kernels: the dot product and the axpy update over
// contiguous vectors. With AVX2+FMA they run in assembly
// (microkernel_amd64.s) under every float32 unit-stride level-1 and
// level-2 path — Dot, Axpy, Gemv, Trsv — and under the narrow products
// Gemm takes for n < NR (gemmVec32), which are what a one-column tile
// solve runs. Their float64 forms are exported as DotF64 and AxpyF64 for
// callers' own sweeps. The float64 library paths keep their Go loops and
// with them their bits, which the pinned-hash tests of core hold.
//
// A kernel's lane order depends on the length alone: loads are unaligned
// and nothing is peeled for alignment, so a result never depends on where
// a slice starts. The dot kernels sum in a different order than the Go
// loops and the axpy kernels round each update once (a fused
// multiply-add), so their results differ from the loops' in the last bits.

// vecKernels reports whether the AVX2+FMA dot and axpy kernels run: the
// CPU has the instructions and the installed blocking selects the wide
// microkernels (MR = 8, see registerTile). Installing MR = 4 turns both
// kernel families off together.
func vecKernels() bool { return haveAvx2Fma && gemmBlocking.Load().MR == 8 }

// dot32 returns Σ x[i]·y[i] over len(x) elements on the AVX2 kernel; y
// must be at least as long. Callers have checked vecKernels.
func dot32(x, y []float32) float32 { return dotF32Avx(x, y[:len(x)]) }

// axpy32 computes y[i] ← α·x[i] + y[i] over len(x) elements on the AVX2
// kernel; y must be at least as long. Callers have checked vecKernels.
func axpy32(alpha float32, x, y []float32) { axpyF32Avx(alpha, x, y[:len(x)]) }

// DotF64 returns Σ x[i]·y[i] over len(x) elements; y must be at least as
// long. It runs on the AVX2+FMA kernel where the CPU has it, whose
// summation order depends on len(x) alone. Dot[float64] keeps its
// sequential loop, so the two differ in the last bits.
func DotF64(x, y []float64) float64 {
	y = y[:len(x)]
	if vecKernels() {
		return dotF64Avx(x, y)
	}
	var s float64
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// AxpyF64 computes y[i] ← α·x[i] + y[i] over len(x) elements; y must be
// at least as long. It runs on the AVX2+FMA kernel where the CPU has it,
// rounding each update once. Unlike Axpy it does not return early for
// α = 0, so 0·NaN and 0·Inf in x reach y.
func AxpyF64(alpha float64, x, y []float64) {
	y = y[:len(x)]
	if vecKernels() {
		axpyF64Avx(alpha, x, y)
		return
	}
	for i, v := range x {
		y[i] += alpha * v
	}
}

// gemvVec32 is Gemv's product y ← y + α·op(A)·x for float32 with unit
// strides on the kernels: axpy updates by the columns of A, skipping zero
// coefficients as Gemv does, or one dot product per column for Aᵀ.
func gemvVec32(trans Transpose, m, n int, alpha float32, a []float32, lda int, x, y []float32) {
	if trans == NoTrans {
		for j, xj := range x[:n] {
			if xv := alpha * xj; xv != 0 {
				axpy32(xv, a[j*lda:j*lda+m], y)
			}
		}
		return
	}
	for j := range y[:n] {
		y[j] += alpha * dot32(a[j*lda:j*lda+m], x)
	}
}

// trsvVec32 is Trsv for float32 with a unit stride on the kernels: an axpy
// per solved position for op(A) = A, as Trsv's column sweeps, and a dot
// product per position for Aᵀ.
func trsvVec32(uplo Uplo, trans Transpose, unit bool, n int, a []float32, lda int, x []float32) {
	x = x[:n]
	switch {
	case trans == NoTrans && uplo == Lower:
		for j := range x {
			if !unit {
				x[j] /= a[j+j*lda]
			}
			if xj := x[j]; xj != 0 {
				axpy32(-xj, a[j*lda+j+1:j*lda+n], x[j+1:])
			}
		}
	case trans == NoTrans:
		for j := n - 1; j >= 0; j-- {
			if !unit {
				x[j] /= a[j+j*lda]
			}
			if xj := x[j]; xj != 0 {
				axpy32(-xj, a[j*lda:j*lda+j], x)
			}
		}
	case uplo == Lower:
		for i := n - 1; i >= 0; i-- {
			s := x[i] - dot32(a[i*lda+i+1:i*lda+n], x[i+1:])
			if !unit {
				s /= a[i+i*lda]
			}
			x[i] = s
		}
	default:
		for i := range x {
			s := x[i] - dot32(a[i*lda:i*lda+i], x)
			if !unit {
				s /= a[i+i*lda]
			}
			x[i] = s
		}
	}
}

// gemmVec32 is gemmNN, gemmNT and gemmTN for float32 on the kernels,
// C += α·op(A)·op(B) one column of C at a time: axpy updates by the
// columns of A (NN, NT) or one dot product per entry (TN), under the same
// cache blocking as the Go loops. Zero coefficients are not skipped, so
// 0·NaN propagates (see Gemm).
func gemmVec32(transA, transB Transpose, m, n, k int, alpha float32, a []float32, lda int, b []float32, ldb int, c []float32, ldc int) {
	if transA == Trans {
		for jb := 0; jb < n; jb += gemmNC {
			for ib := 0; ib < m; ib += gemmNC {
				for j := jb; j < min(jb+gemmNC, n); j++ {
					bcol, ccol := b[j*ldb:j*ldb+k], c[j*ldc:j*ldc+m]
					for i := ib; i < min(ib+gemmNC, m); i++ {
						ccol[i] += alpha * dot32(a[i*lda:i*lda+k], bcol)
					}
				}
			}
		}
		return
	}
	// B[l,j] sits at b[l·bl + j·bj].
	bl, bj := 1, ldb
	if transB == Trans {
		bl, bj = ldb, 1
	}
	for jb := 0; jb < n; jb += gemmNC {
		for lb := 0; lb < k; lb += gemmKC {
			for j := jb; j < min(jb+gemmNC, n); j++ {
				ccol := c[j*ldc : j*ldc+m]
				for l := lb; l < min(lb+gemmKC, k); l++ {
					axpy32(alpha*b[l*bl+j*bj], a[l*lda:l*lda+m], ccol)
				}
			}
		}
	}
}
