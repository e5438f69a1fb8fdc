package lapack

import "exadla/internal/blas"

// Potf2 computes the unblocked Cholesky factorization of the n×n symmetric
// positive definite matrix A: A = L·Lᵀ (uplo == Lower) or A = Uᵀ·U
// (uplo == Upper). The factor overwrites the referenced triangle. A pivot
// that is not positive, a NaN included, stops it with
// *NotPositiveDefiniteError, as reference DPOTF2 does.
func Potf2[T blas.Float](uplo blas.Uplo, n int, a []T, lda int) error {
	if uplo == blas.Lower {
		for j := 0; j < n; j++ {
			// A[j,j] -= A[j,0:j]·A[j,0:j]ᵀ (row of L, strided).
			d := a[j+j*lda]
			for k := 0; k < j; k++ {
				v := a[j+k*lda]
				d -= v * v
			}
			if !(d > 0) {
				return &NotPositiveDefiniteError{Index: j}
			}
			d = sqrt(d)
			a[j+j*lda] = d
			if j+1 < n {
				// A[j+1:,j] = (A[j+1:,j] − A[j+1:,0:j]·A[j,0:j]ᵀ) / d.
				col := a[j*lda:]
				for k := 0; k < j; k++ {
					ljk := a[j+k*lda]
					if ljk == 0 {
						continue
					}
					ck := a[k*lda:]
					for i := j + 1; i < n; i++ {
						col[i] -= ljk * ck[i]
					}
				}
				inv := 1 / d
				for i := j + 1; i < n; i++ {
					col[i] *= inv
				}
			}
		}
		return nil
	}
	// Upper: A = UᵀU.
	for j := 0; j < n; j++ {
		col := a[j*lda:]
		d := col[j]
		for k := 0; k < j; k++ {
			d -= col[k] * col[k]
		}
		if !(d > 0) {
			return &NotPositiveDefiniteError{Index: j}
		}
		d = sqrt(d)
		col[j] = d
		if j+1 < n {
			// U[j,j+1:] = (A[j,j+1:] − U[0:j,j]ᵀ·U[0:j,j+1:]) / d.
			for jj := j + 1; jj < n; jj++ {
				cjj := a[jj*lda:]
				s := cjj[j]
				for k := 0; k < j; k++ {
					s -= col[k] * cjj[k]
				}
				cjj[j] = s / d
			}
		}
	}
	return nil
}

// potrfLeaf is the recursion cutoff of Potrf: triangles of this order run
// the unblocked Potf2, everything larger splits in half so the solve and
// update — the bulk of the flops — run as Trsm and Syrk, packed sweeps of
// the GEMM microkernel. Kept small because Potf2's scalar loops are the
// slowest code in the factorization.
const potrfLeaf = 32

// Potrf computes the Cholesky factorization of the n×n symmetric positive
// definite matrix A in place, recursively: the leading half is factored,
// the coupling panel solved with Trsm, the trailing half updated with Syrk
// and factored in turn. All but an O(n·potrfLeaf²) sliver of the flops run
// as level-3 updates.
func Potrf[T blas.Float](uplo blas.Uplo, n int, a []T, lda int) error {
	if n <= potrfLeaf {
		return Potf2(uplo, n, a, lda)
	}
	n1 := n / 2
	n2 := n - n1
	if err := Potrf(uplo, n1, a, lda); err != nil {
		return err
	}
	if uplo == blas.Lower {
		// A21 ← A21·L11⁻ᵀ, then A22 -= L21·L21ᵀ.
		blas.Trsm(blas.Right, blas.Lower, blas.Trans, blas.NonUnit,
			n2, n1, 1, a, lda, a[n1:], lda)
		blas.Syrk(blas.Lower, blas.NoTrans, n2, n1, -1, a[n1:], lda, 1, a[n1+n1*lda:], lda)
	} else {
		// A12 ← U11⁻ᵀ·A12, then A22 -= U12ᵀ·U12.
		blas.Trsm(blas.Left, blas.Upper, blas.Trans, blas.NonUnit,
			n1, n2, 1, a, lda, a[n1*lda:], lda)
		blas.Syrk(blas.Upper, blas.Trans, n2, n1, -1, a[n1*lda:], lda, 1, a[n1+n1*lda:], lda)
	}
	if err := Potrf(uplo, n2, a[n1+n1*lda:], lda); err != nil {
		perr := err.(*NotPositiveDefiniteError)
		return &NotPositiveDefiniteError{Index: n1 + perr.Index}
	}
	return nil
}

// Potrs solves A·X = B for nrhs right-hand sides given the Cholesky factor
// computed by Potrf. B is n×nrhs and is overwritten with X.
func Potrs[T blas.Float](uplo blas.Uplo, n, nrhs int, a []T, lda int, b []T, ldb int) {
	if uplo == blas.Lower {
		blas.Trsm(blas.Left, blas.Lower, blas.NoTrans, blas.NonUnit, n, nrhs, 1, a, lda, b, ldb)
		blas.Trsm(blas.Left, blas.Lower, blas.Trans, blas.NonUnit, n, nrhs, 1, a, lda, b, ldb)
		return
	}
	blas.Trsm(blas.Left, blas.Upper, blas.Trans, blas.NonUnit, n, nrhs, 1, a, lda, b, ldb)
	blas.Trsm(blas.Left, blas.Upper, blas.NoTrans, blas.NonUnit, n, nrhs, 1, a, lda, b, ldb)
}

// Posv factors the symmetric positive definite matrix A (overwriting it)
// and solves A·X = B in place.
func Posv[T blas.Float](uplo blas.Uplo, n, nrhs int, a []T, lda int, b []T, ldb int) error {
	if err := Potrf(uplo, n, a, lda); err != nil {
		return err
	}
	Potrs(uplo, n, nrhs, a, lda, b, ldb)
	return nil
}
