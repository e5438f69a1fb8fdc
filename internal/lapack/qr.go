package lapack

import "exadla/internal/blas"

// Larfg generates an elementary Householder reflector H such that
//
//	H·[alpha, x]ᵀ = [beta, 0]ᵀ,  H = I − tau·v·vᵀ,  v = [1, vTail]ᵀ.
//
// On return x is overwritten with vTail. n is the order of the reflector
// (1 + len of x's logical vector). It returns beta and tau; tau == 0 means
// H is the identity.
func Larfg[T blas.Float](n int, alpha T, x []T, incX int) (beta, tau T) {
	if n <= 1 {
		return alpha, 0
	}
	xnorm := blas.Nrm2(n-1, x, incX)
	if xnorm == 0 {
		return alpha, 0
	}
	// beta = -sign(alpha)·‖[alpha, x]‖ for stability.
	beta = hypot(alpha, xnorm)
	if alpha > 0 {
		beta = -beta
	}
	tau = (beta - alpha) / beta
	scale := 1 / (alpha - beta)
	blas.Scal(n-1, scale, x, incX)
	return beta, tau
}

func hypot[T blas.Float](a, b T) T {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	if a < b {
		a, b = b, a
	}
	if a == 0 {
		return 0
	}
	r := b / a
	return a * sqrt(1+r*r)
}

// Larf applies the reflector H = I − tau·v·vᵀ to the m×n matrix C from the
// left (side == Left, v has length m) or right (side == Right, v has length
// n). work must have length ≥ n (Left) or m (Right).
func Larf[T blas.Float](side blas.Side, m, n int, v []T, incV int, tau T, c []T, ldc int, work []T) {
	if tau == 0 {
		return
	}
	if side == blas.Left {
		// work = Cᵀ·v; C -= tau·v·workᵀ.
		blas.Gemv(blas.Trans, m, n, 1, c, ldc, v, incV, 0, work[:n], 1)
		blas.Ger(m, n, -tau, v, incV, work, 1, c, ldc)
		return
	}
	// work = C·v; C -= tau·work·vᵀ.
	blas.Gemv(blas.NoTrans, m, n, 1, c, ldc, v, incV, 0, work[:m], 1)
	blas.Ger(m, n, -tau, work, 1, v, incV, c, ldc)
}

// Geqr2 computes the unblocked QR factorization of the m×n matrix A:
// A = Q·R. R overwrites the upper triangle; the Householder vectors
// overwrite the strict lower triangle and tau (length min(m, n)) holds the
// reflector scales. work must have length ≥ n.
func Geqr2[T blas.Float](m, n int, a []T, lda int, tau, work []T) {
	k := min(m, n)
	for j := 0; j < k; j++ {
		col := a[j*lda:]
		beta, t := Larfg(m-j, col[j], col[j+1:j+1+max(0, m-j-1)], 1)
		tau[j] = t
		if j+1 < n {
			// Apply H to the trailing A[j:, j+1:] with v implicit in A.
			col[j] = 1
			Larf(blas.Left, m-j, n-j-1, col[j:j+m-j], 1, t, a[j+(j+1)*lda:], lda, work)
		}
		col[j] = beta
	}
}

// Larfb applies the block reflector H = I − V·T·Vᵀ (trans == NoTrans) or
// Hᵀ (trans == Trans) to the m×n matrix C from the left. V is m×k, m ≥ k,
// forward and columnwise with its unit diagonal implied, and T is the k×k
// upper factor from Geqrt. work is k×n with leading dimension ldwork ≥ k.
func Larfb[T blas.Float](side blas.Side, trans blas.Transpose, m, n, k int, v []T, ldv int, t []T, ldt int, c []T, ldc int, work []T, ldwork int) {
	if m == 0 || n == 0 || k == 0 {
		return
	}
	if side != blas.Left {
		panic("lapack: Larfb implements side == Left only")
	}
	// W = Vᵀ·C = V1ᵀ·C1 + V2ᵀ·C2, V1 the unit lower k×k top of V and C1
	// the first k rows of C.
	Lacpy(General, k, n, c, ldc, work, ldwork)
	blas.Trmm(blas.Left, blas.Lower, blas.Trans, blas.Unit, k, n, 1, v, ldv, work, ldwork)
	if m > k {
		blas.Gemm(blas.Trans, blas.NoTrans, k, n, m-k, 1, v[k:], ldv, c[k:], ldc, 1, work, ldwork)
	}
	// W = T·W for H, Tᵀ·W for Hᵀ; then C −= V·W.
	blas.Trmm(blas.Left, blas.Upper, trans, blas.NonUnit, k, n, 1, t, ldt, work, ldwork)
	if m > k {
		blas.Gemm(blas.NoTrans, blas.NoTrans, m-k, n, k, -1, v[k:], ldv, work, ldwork, 1, c[k:], ldc)
	}
	blas.Trmm(blas.Left, blas.Lower, blas.NoTrans, blas.Unit, k, n, 1, v, ldv, work, ldwork)
	for j := 0; j < n; j++ {
		cj, wj := c[j*ldc:j*ldc+k], work[j*ldwork:j*ldwork+k]
		for i, x := range wj {
			cj[i] -= x
		}
	}
}

// geqrtLeaf is the panel width at and below which Geqrt's recursion runs
// the column-by-column loop.
const geqrtLeaf = 8

// Geqrt computes the QR factorization of the m×n matrix A in compact WY
// form. R overwrites the upper triangle and the k = min(m, n) Householder
// vectors the strict lower triangle, their unit diagonal implied. t (k×k,
// leading dimension ldt) receives the upper triangular T with
// H₁·H₂···H_k = I − V·T·Vᵀ; its diagonal holds the reflector scales τ and
// its strict lower triangle is not referenced. The first k columns are
// factored by Elmroth–Gustavson column splitting (LAPACK's dgeqrt3), so
// everything but the narrow leaves is GEMM and TRMM; the other n − k
// columns of a wide A are then updated with Larfb.
func Geqrt[T blas.Float](m, n int, a []T, lda int, t []T, ldt int) {
	k := min(m, n)
	if k == 0 {
		return
	}
	geqrt3(m, k, a, lda, t, ldt)
	if n > k {
		w := blas.GetScratch[T](k * (n - k))
		Larfb(blas.Left, blas.Trans, m, n-k, k, a, lda, t, ldt, a[k*lda:], lda, w.Buf, k)
		w.Release()
	}
}

// geqrt3 factors the m×n matrix A, m ≥ n, as Geqrt does: the left half
// recursively, then Q₁ᵀ applied to the right half, then the right half's
// lower part recursively, and finally T₁₂ = −T₁₁·(V₁ᵀ·V₂)·T₂₂.
func geqrt3[T blas.Float](m, n int, a []T, lda int, t []T, ldt int) {
	if n <= geqrtLeaf {
		geqrt2(m, n, a, lda, t, ldt)
		return
	}
	n1 := n / 2
	n2 := n - n1
	t12 := t[n1*ldt:]
	geqrt3(m, n1, a, lda, t, ldt)
	// T₁₂ is free until the end: it is Larfb's workspace.
	Larfb(blas.Left, blas.Trans, m, n2, n1, a, lda, t, ldt, a[n1*lda:], lda, t12, ldt)
	geqrt3(m-n1, n2, a[n1+n1*lda:], lda, t[n1+n1*ldt:], ldt)
	// V₂ is zero in rows 0…n1−1 and unit lower triangular in rows n1…n−1,
	// so V₁ᵀ·V₂ = V₁[n1:n]ᵀ·V₂[n1:n] + V₁[n:m]ᵀ·V₂[n:m].
	for j := 0; j < n2; j++ {
		for i := 0; i < n1; i++ {
			t12[i+j*ldt] = a[n1+j+i*lda]
		}
	}
	blas.Trmm(blas.Right, blas.Lower, blas.NoTrans, blas.Unit, n1, n2, 1, a[n1+n1*lda:], lda, t12, ldt)
	if m > n {
		blas.Gemm(blas.Trans, blas.NoTrans, n1, n2, m-n, 1, a[n:], lda, a[n+n1*lda:], lda, 1, t12, ldt)
	}
	blas.Trmm(blas.Left, blas.Upper, blas.NoTrans, blas.NonUnit, n1, n2, -1, t, ldt, t12, ldt)
	blas.Trmm(blas.Right, blas.Upper, blas.NoTrans, blas.NonUnit, n1, n2, 1, t[n1+n1*ldt:], ldt, t12, ldt)
}

// geqrt2 is Geqrt's leaf for m ≥ n: Householder QR one column at a time,
// with T's column j formed right after reflector j. T's last column is the
// workspace of the trailing updates until its own turn.
func geqrt2[T blas.Float](m, n int, a []T, lda int, t []T, ldt int) {
	w := t[(n-1)*ldt:]
	for j := 0; j < n; j++ {
		col := a[j*lda:]
		beta, tau := Larfg(m-j, col[j], col[j+1:m], 1)
		// v = [1; A[j+1:, j]], with the implicit 1 stored for the products.
		col[j] = 1
		v := col[j:m]
		if nc := n - j - 1; nc > 0 && tau != 0 {
			// w = A[j:, j+1:]ᵀ·v;  A[j:, j+1:] −= τ·v·wᵀ.
			blas.Gemv(blas.Trans, m-j, nc, 1, a[j+(j+1)*lda:], lda, v, 1, 0, w[:nc], 1)
			blas.Ger(m-j, nc, -tau, v, 1, w[:nc], 1, a[j+(j+1)*lda:], lda)
		}
		// T[0:j, j] = −τ·T[0:j, 0:j]·(V[j:, 0:j]ᵀ·v): rows above j of v are zero.
		if j > 0 {
			blas.Gemv(blas.Trans, m-j, j, -tau, a[j:], lda, v, 1, 0, t[j*ldt:], 1)
			blas.Trmv(blas.Upper, blas.NoTrans, blas.NonUnit, j, t, ldt, t[j*ldt:], 1)
		}
		col[j] = beta
		t[j+j*ldt] = tau
	}
}

// Geqrf computes the blocked QR factorization of the m×n matrix A in
// place, with tau of length min(m, n): Geqrt factors each panel, and
// Larfb applies it to the trailing columns.
func Geqrf[T blas.Float](m, n int, a []T, lda int, tau []T) {
	k := min(m, n)
	if k == 0 {
		return
	}
	work := make([]T, max(n, 1)*blockSize)
	tmat := make([]T, blockSize*blockSize)
	for j := 0; j < k; j += blockSize {
		jb := min(blockSize, k-j)
		Geqrt(m-j, jb, a[j+j*lda:], lda, tmat, jb)
		for i := 0; i < jb; i++ {
			tau[j+i] = tmat[i+i*jb]
		}
		if j+jb < n {
			Larfb(blas.Left, blas.Trans, m-j, n-j-jb, jb,
				a[j+j*lda:], lda, tmat, jb, a[j+(j+jb)*lda:], lda, work, jb)
		}
	}
}

// Org2r generates the first k columns of the orthogonal factor Q from the
// reflectors stored by Geqr2/Geqrf in the m×n matrix A (n ≥ k). On return
// A holds the explicit m×n Q panel.
func Org2r[T blas.Float](m, n, k int, a []T, lda int, tau []T) {
	if n == 0 {
		return
	}
	work := make([]T, n)
	// Initialise trailing columns k..n-1 to identity columns.
	for j := k; j < n; j++ {
		col := a[j*lda:]
		for i := 0; i < m; i++ {
			col[i] = 0
		}
		col[j] = 1
	}
	for j := k - 1; j >= 0; j-- {
		col := a[j*lda:]
		t := tau[j]
		if j+1 < n {
			col[j] = 1
			Larf(blas.Left, m-j, n-j-1, col[j:j+m-j], 1, t, a[j+(j+1)*lda:], lda, work)
		}
		if j+1 < m {
			blas.Scal(m-j-1, -t, col[j+1:], 1)
		}
		col[j] = 1 - t
		for i := 0; i < j; i++ {
			col[i] = 0
		}
	}
}

// Ormqr applies Q or Qᵀ (from Geqrf's reflectors in A, k of them) to the
// m×n matrix C from the left: C ← op(Q)·C.
func Ormqr[T blas.Float](trans blas.Transpose, m, n, k int, a []T, lda int, tau []T, c []T, ldc int) {
	work := make([]T, max(m, n))
	// Q = H₀H₁···H_{k−1}. Q·C applies reflectors in reverse order, Qᵀ·C in
	// forward order.
	apply := func(j int) {
		col := a[j*lda:]
		save := col[j]
		col[j] = 1
		Larf(blas.Left, m-j, n, col[j:j+m-j], 1, tau[j], c[j:], ldc, work)
		col[j] = save
	}
	if trans == blas.Trans {
		for j := 0; j < k; j++ {
			apply(j)
		}
	} else {
		for j := k - 1; j >= 0; j-- {
			apply(j)
		}
	}
}

// Gels solves the overdetermined least-squares problem min‖A·x − b‖₂ for a
// full-rank m×n matrix A with m ≥ n, via QR: x = R⁻¹·(Qᵀb)[0:n]. A and b
// are overwritten; the solution is the first n entries of b. It returns a
// *SingularError if R has an exactly zero diagonal entry.
func Gels[T blas.Float](m, n int, a []T, lda int, b []T) error {
	if m < n {
		panic("lapack: Gels requires m ≥ n")
	}
	tau := make([]T, n)
	Geqrf(m, n, a, lda, tau)
	Ormqr(blas.Trans, m, 1, n, a, lda, tau, b, m)
	for i := 0; i < n; i++ {
		if a[i+i*lda] == 0 {
			return &SingularError{Index: i}
		}
	}
	blas.Trsv(blas.Upper, blas.NoTrans, blas.NonUnit, n, a, lda, b, 1)
	return nil
}
