package lapack

import "exadla/internal/blas"

// Getf2 computes the unblocked LU factorization with partial pivoting of
// the m×n matrix A: A = P·L·U. L is unit lower triangular, U upper
// triangular; both overwrite A. ipiv must have length min(m, n); on return
// ipiv[i] is the row (zero-based, ≥ i) swapped with row i at step i.
//
// Like reference GETRF, an exactly zero pivot is reported as a
// *SingularError but the factorization continues, so the caller receives a
// complete (rank-revealing at that column) factorization either way.
func Getf2[T blas.Float](m, n int, a []T, lda int, ipiv []int) error {
	k := min(m, n)
	if len(ipiv) < k {
		panic("lapack: ipiv too short")
	}
	var firstZero = -1
	for j := 0; j < k; j++ {
		// Find pivot in column j at or below the diagonal.
		col := a[j*lda:]
		p := j
		mx := max(col[j], -col[j])
		for i := j + 1; i < m; i++ {
			// Branch-free |v|: the sign of random data would mispredict.
			if v := max(col[i], -col[i]); v > mx {
				mx, p = v, i
			}
		}
		ipiv[j] = p
		if col[p] == 0 {
			if firstZero < 0 {
				firstZero = j
			}
			continue // zero column below diagonal: L entries stay zero
		}
		if p != j {
			blas.Swap(n, a[j:], lda, a[p:], lda)
		}
		// Scale multipliers.
		inv := 1 / col[j]
		for i := j + 1; i < m; i++ {
			col[i] *= inv
		}
		// Trailing update A[j+1:, j+1:] -= A[j+1:, j]·A[j, j+1:].
		if j+1 < n {
			blas.Ger(m-j-1, n-j-1, -1, col[j+1:], 1, a[j+(j+1)*lda:], lda, a[j+1+(j+1)*lda:], lda)
		}
	}
	if firstZero >= 0 {
		return &SingularError{Index: firstZero}
	}
	return nil
}

// Laswp applies the row interchanges recorded in ipiv[k1:k2] to the
// columns of the m×n matrix A: for i = k1..k2-1, row i is swapped with row
// ipiv[i]. This matches dlaswp with increment 1 (zero-based).
func Laswp[T blas.Float](n int, a []T, lda int, k1, k2 int, ipiv []int) {
	for i := k1; i < k2; i++ {
		p := ipiv[i]
		if p != i {
			blas.Swap(n, a[i:], lda, a[p:], lda)
		}
	}
}

// getrfLeaf is the widest panel Getrf hands to the unblocked Getf2
// instead of splitting it again.
const getrfLeaf = 8

// Getrf computes the LU factorization with partial pivoting of the m×n
// matrix A in place by Toledo's recursion (LAPACK's dgetrf2): factor the
// left half of the columns, apply its row interchanges and L to the right
// half, update the trailing block with one GEMM, factor that, and swap the
// left half's rows by its pivots. Most of the flops land in the GEMMs and
// TRSMs of the upper levels, however tall the panel; only panels at most
// getrfLeaf wide run the level-2 Getf2. ipiv and the singular-pivot report
// mean what they mean for Getf2.
func Getrf[T blas.Float](m, n int, a []T, lda int, ipiv []int) error {
	k := min(m, n)
	if len(ipiv) < k {
		panic("lapack: ipiv too short")
	}
	if k <= getrfLeaf {
		return Getf2(m, n, a, lda, ipiv)
	}
	n1 := k / 2
	n2 := n - n1
	a12, a21, a22 := a[n1*lda:], a[n1:], a[n1+n1*lda:]
	// [A11; A21] = P1·[L11; L21]·U11.
	err := Getrf(m, n1, a, lda, ipiv[:n1])
	// [A12; A22] ← P1·[A12; A22], then U12 = L11⁻¹·A12 and A22 -= L21·U12.
	Laswp(n2, a12, lda, 0, n1, ipiv)
	blas.Trsm(blas.Left, blas.Lower, blas.NoTrans, blas.Unit, n1, n2, 1, a, lda, a12, lda)
	blas.Gemm(blas.NoTrans, blas.NoTrans, m-n1, n2, n1, -1, a21, lda, a12, lda, 1, a22, lda)
	// A22 = P2·L22·U22, with P2's pivots shifted to A's rows and applied to
	// L21.
	err2 := Getrf(m-n1, n2, a22, lda, ipiv[n1:k])
	for i := n1; i < k; i++ {
		ipiv[i] += n1
	}
	Laswp(n1, a, lda, n1, k, ipiv)
	if err == nil && err2 != nil {
		err = &SingularError{Index: n1 + err2.(*SingularError).Index}
	}
	return err
}

// Getrs solves op(A)·X = B given the LU factorization from Getrf. B is
// n×nrhs and is overwritten with X.
func Getrs[T blas.Float](trans blas.Transpose, n, nrhs int, a []T, lda int, ipiv []int, b []T, ldb int) {
	if trans == blas.NoTrans {
		// Pᵀ... apply the recorded swaps to B, then L·U·X = P·B.
		Laswp(nrhs, b, ldb, 0, n, ipiv)
		blas.Trsm(blas.Left, blas.Lower, blas.NoTrans, blas.Unit, n, nrhs, 1, a, lda, b, ldb)
		blas.Trsm(blas.Left, blas.Upper, blas.NoTrans, blas.NonUnit, n, nrhs, 1, a, lda, b, ldb)
		return
	}
	// Aᵀ·X = B ⇒ Uᵀ·Lᵀ·Pᵀ·X = B: solve Uᵀ, then Lᵀ, then undo the swaps in
	// reverse order.
	blas.Trsm(blas.Left, blas.Upper, blas.Trans, blas.NonUnit, n, nrhs, 1, a, lda, b, ldb)
	blas.Trsm(blas.Left, blas.Lower, blas.Trans, blas.Unit, n, nrhs, 1, a, lda, b, ldb)
	for i := n - 1; i >= 0; i-- {
		if p := ipiv[i]; p != i {
			blas.Swap(nrhs, b[i:], ldb, b[p:], ldb)
		}
	}
}

// Gesv factors the n×n matrix A with partial pivoting (overwriting it) and
// solves A·X = B in place. ipiv must have length n.
func Gesv[T blas.Float](n, nrhs int, a []T, lda int, ipiv []int, b []T, ldb int) error {
	if err := Getrf(n, n, a, lda, ipiv); err != nil {
		return err
	}
	Getrs(blas.NoTrans, n, nrhs, a, lda, ipiv, b, ldb)
	return nil
}
