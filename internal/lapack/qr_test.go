package lapack_test

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"exadla/internal/blas"
	"exadla/internal/lapack"
	"exadla/internal/matgen"
)

// qrCheck factors A, reconstructs Q·R, and verifies both the reconstruction
// and the orthogonality of Q.
func qrCheck(t *testing.T, rng *rand.Rand, m, n int) {
	t.Helper()
	a := matgen.Dense[float64](rng, m, n)
	f := append([]float64(nil), a...)
	k := min(m, n)
	tau := make([]float64, k)
	lapack.Geqrf(m, n, f, m, tau)

	r := extractUpper(k, n, f, m)

	// Materialize Q (m×k).
	q := make([]float64, m*k)
	lapack.Lacpy(lapack.General, m, k, f, m, q, m)
	lapack.Org2r(m, k, k, q, m, tau)

	// QᵀQ == I.
	qtq := make([]float64, k*k)
	blas.Gemm(blas.Trans, blas.NoTrans, k, k, m, 1, q, m, q, m, 0, qtq, k)
	for j := 0; j < k; j++ {
		for i := 0; i < k; i++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(qtq[i+j*k]-want) > 1e-13*float64(m) {
				t.Fatalf("m=%d n=%d: QᵀQ[%d,%d] = %v", m, n, i, j, qtq[i+j*k])
			}
		}
	}

	// Q·R == A.
	recon := make([]float64, m*n)
	blas.Gemm(blas.NoTrans, blas.NoTrans, m, n, k, 1, q, m, r, k, 0, recon, m)
	if res := residual(recon, a, max(m, n)); res > 30 {
		t.Errorf("m=%d n=%d: QR reconstruction residual %g", m, n, res)
	}
}

func TestGeqrfReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, d := range [][2]int{{1, 1}, {3, 3}, {10, 10}, {10, 4}, {100, 30}, {64, 64}, {65, 65}, {130, 130}, {40, 100}} {
		qrCheck(t, rng, d[0], d[1])
	}
}

func TestGeqrfMatchesUnblocked(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	m, n := 150, 150 // forces blocked path
	a := matgen.Dense[float64](rng, m, n)
	blocked := append([]float64(nil), a...)
	unblocked := append([]float64(nil), a...)
	tauB := make([]float64, n)
	tauU := make([]float64, n)
	work := make([]float64, n)
	lapack.Geqrf(m, n, blocked, m, tauB)
	lapack.Geqr2(m, n, unblocked, m, tauU, work)
	for i := range blocked {
		if math.Abs(blocked[i]-unblocked[i]) > 1e-10 {
			t.Fatalf("blocked/unblocked diverge at %d: %v vs %v", i, blocked[i], unblocked[i])
		}
	}
	for i := range tauB {
		if math.Abs(tauB[i]-tauU[i]) > 1e-12 {
			t.Fatalf("tau diverges at %d", i)
		}
	}
}

func TestOrmqrMatchesExplicitQ(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	m, n, nrhs := 40, 25, 3
	a := matgen.Dense[float64](rng, m, n)
	tau := make([]float64, n)
	lapack.Geqrf(m, n, a, m, tau)

	q := make([]float64, m*m)
	lapack.Lacpy(lapack.General, m, min(m, n), a, m, q, m)
	lapack.Org2r(m, m, n, q, m, tau)

	c := matgen.Dense[float64](rng, m, nrhs)
	for _, trans := range []blas.Transpose{blas.NoTrans, blas.Trans} {
		got := append([]float64(nil), c...)
		lapack.Ormqr(trans, m, nrhs, n, a, m, tau, got, m)
		want := make([]float64, m*nrhs)
		blas.Gemm(trans, blas.NoTrans, m, nrhs, m, 1, q, m, c, m, 0, want, m)
		if r := residual(got, want, m); r > 30 {
			t.Errorf("Ormqr %v residual %g", trans, r)
		}
	}
}

func TestGelsSolvesLeastSquares(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	m, n := 100, 20
	a := matgen.Dense[float64](rng, m, n)
	aCopy := append([]float64(nil), a...)
	b := matgen.Dense[float64](rng, m, 1)
	bCopy := append([]float64(nil), b...)
	if err := lapack.Gels(m, n, a, m, b); err != nil {
		t.Fatal(err)
	}
	x := b[:n]
	// Optimality: the residual must be orthogonal to the column space,
	// i.e. Aᵀ(b − A·x) ≈ 0.
	res := append([]float64(nil), bCopy...)
	blas.Gemv(blas.NoTrans, m, n, -1, aCopy, m, x, 1, 1, res, 1)
	atr := make([]float64, n)
	blas.Gemv(blas.Trans, m, n, 1, aCopy, m, res, 1, 0, atr, 1)
	scale := lapack.Lange(lapack.OneNorm, m, n, aCopy, m) * blas.Nrm2(m, bCopy, 1)
	for i, v := range atr {
		if math.Abs(v) > 1e-12*scale*float64(m) {
			t.Errorf("normal equations violated at %d: %g", i, v)
		}
	}
}

func TestGelsExactSystem(t *testing.T) {
	// When b is in the range of A the residual must vanish and x must be
	// the exact preimage.
	rng := rand.New(rand.NewSource(24))
	m, n := 60, 15
	a := matgen.Dense[float64](rng, m, n)
	xTrue := matgen.Dense[float64](rng, n, 1)
	b := make([]float64, m)
	blas.Gemv(blas.NoTrans, m, n, 1, a, m, xTrue, 1, 0, b, 1)
	aCopy := append([]float64(nil), a...)
	if err := lapack.Gels(m, n, a, m, b); err != nil {
		t.Fatal(err)
	}
	if r := residual(b[:n], xTrue, m); r > 1e4 {
		t.Errorf("exact-system solution residual %g", r)
	}
	_ = aCopy
}

func TestLarfgProperties(t *testing.T) {
	// H·[alpha, x] = [beta, 0] and beta² == alpha² + ‖x‖² (norm preserved).
	rng := rand.New(rand.NewSource(25))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(20)
		alpha := r.NormFloat64()
		x := make([]float64, n-1)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		normBefore := math.Hypot(alpha, blas.Nrm2(n-1, x, 1))
		v := append([]float64(nil), x...)
		beta, tau := lapack.Larfg(n, alpha, v, 1)
		if math.Abs(math.Abs(beta)-normBefore) > 1e-12*(1+normBefore) {
			return false
		}
		// Apply H = I − tau·[1 v][1 v]ᵀ to [alpha, x]ᵀ explicitly.
		full := append([]float64{alpha}, x...)
		vv := append([]float64{1}, v...)
		dot := blas.Dot(n, vv, 1, full, 1)
		blas.Axpy(n, -tau*dot, vv, 1, full, 1)
		if math.Abs(full[0]-beta) > 1e-12*(1+math.Abs(beta)) {
			return false
		}
		for _, z := range full[1:] {
			if math.Abs(z) > 1e-12*(1+normBefore) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestLarfgZeroTail(t *testing.T) {
	// x == 0 must yield the identity reflector (tau == 0, beta == alpha).
	x := []float64{0, 0, 0}
	beta, tau := lapack.Larfg(4, 2.5, x, 1)
	if tau != 0 || beta != 2.5 {
		t.Errorf("got beta=%v tau=%v", beta, tau)
	}
}

func TestGeqrfFloat32(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	m, n := 30, 12
	a := matgen.Dense[float32](rng, m, n)
	orig := append([]float32(nil), a...)
	tau := make([]float32, n)
	lapack.Geqrf(m, n, a, m, tau)
	q := make([]float32, m*n)
	lapack.Lacpy(lapack.General, m, n, a, m, q, m)
	lapack.Org2r(m, n, n, q, m, tau)
	r := make([]float32, n*n)
	for j := 0; j < n; j++ {
		for i := 0; i <= j; i++ {
			r[i+j*n] = a[i+j*m]
		}
	}
	recon := make([]float32, m*n)
	blas.Gemm(blas.NoTrans, blas.NoTrans, m, n, n, 1, q, m, r, n, 0, recon, m)
	for i := range recon {
		if math.Abs(float64(recon[i]-orig[i])) > float64(m)*0x1p-23*30 {
			t.Fatalf("float32 QR reconstruction diff at %d: %v vs %v", i, recon[i], orig[i])
		}
	}
}

// larftRef forms the T of H₁···H_k = I − V·T·Vᵀ column by column with
// LAPACK dlarft's formula, T[0:i, i] = −τᵢ·T[0:i, 0:i]·(V[:, 0:i]ᵀ·vᵢ) and
// T[i, i] = τᵢ, for an explicit dense m×k V.
func larftRef(m, k int, v, tau []float64) []float64 {
	t := make([]float64, k*k)
	for i := 0; i < k; i++ {
		for j := 0; j < i; j++ {
			var s float64
			for r := 0; r < m; r++ {
				s += v[r+j*m] * v[r+i*m]
			}
			t[j+i*k] = -tau[i] * s
		}
		// Upper triangular times a vector in place, top down.
		for j := 0; j < i; j++ {
			var s float64
			for l := j; l < i; l++ {
				s += t[j+l*k] * t[l+i*k]
			}
			t[j+i*k] = s
		}
		t[i+i*k] = tau[i]
	}
	return t
}

// explicitV expands the k Householder vectors stored below the diagonal of
// the m×k/lda matrix a into a dense m×k V with the implied unit diagonal.
func explicitV(m, k int, a []float64, lda int) []float64 {
	v := make([]float64, m*k)
	for j := 0; j < k; j++ {
		v[j+j*m] = 1
		for i := j + 1; i < m; i++ {
			v[i+j*m] = a[i+j*lda]
		}
	}
	return v
}

// checkCompactWY checks a compact-WY QR of the m×n matrix a0 — R and the
// vectors in f (leading dimension m), the k×k factor tm (leading dimension
// ldt) — by forming Q = I − V·T·Vᵀ: ‖Q·R − A‖ and ‖QᵀQ − I‖ must be O(ε).
func checkCompactWY(t *testing.T, m, n int, a0, f, tm []float64, ldt int) {
	t.Helper()
	k := min(m, n)
	v := explicitV(m, k, f, m)
	tk := make([]float64, k*k)
	lapack.Lacpy(blas.Upper, k, k, tm, ldt, tk, k)
	vt := make([]float64, m*k)
	blas.Gemm(blas.NoTrans, blas.NoTrans, m, k, k, 1, v, m, tk, k, 0, vt, m)
	q := make([]float64, m*m)
	for i := 0; i < m; i++ {
		q[i+i*m] = 1
	}
	blas.Gemm(blas.NoTrans, blas.Trans, m, m, k, -1, vt, m, v, m, 1, q, m)
	recon := make([]float64, m*n)
	blas.Gemm(blas.NoTrans, blas.NoTrans, m, n, m, 1, q, m, extractUpper(m, n, f, m), m, 0, recon, m)
	if r := residual(recon, a0, max(m, n)); r > 30 {
		t.Errorf("m=%d n=%d: ‖QR − A‖ residual %.1f", m, n, r)
	}
	qtq := make([]float64, m*m)
	blas.Gemm(blas.Trans, blas.NoTrans, m, m, m, 1, q, m, q, m, 0, qtq, m)
	for i := 0; i < m; i++ {
		qtq[i+i*m]--
	}
	if d := maxAbs(qtq); d > 30*float64(m)*0x1p-52 {
		t.Errorf("m=%d n=%d: ‖QᵀQ − I‖ = %g", m, n, d)
	}
}

func maxAbs(x []float64) float64 {
	var d float64
	for _, v := range x {
		d = max(d, math.Abs(v))
	}
	return d
}

// TestGeqrtMatchesUnblocked checks the recursive Geqrt against the
// unblocked Geqr2 for tall and square panels of every width up to 17 and a
// few recursion depths: the same R and vectors, T as LAPACK dlarft's formula
// gives it for the same vectors and τ, Q·R = A and Q orthogonal, all at O(ε),
// with T's strict lower triangle untouched. Wide panels (m < n) check the
// factorization and the Larfb update of their trailing columns.
func TestGeqrtMatchesUnblocked(t *testing.T) {
	const sentinel = 1e30
	ns := []int{33, 64, 96}
	for n := 1; n <= 17; n++ {
		ns = append(ns, n)
	}
	for _, n := range ns {
		for _, m := range []int{n, n + 1, n + 5, n + 64, n + 96} {
			rng := rand.New(rand.NewSource(int64(1000*m + n)))
			a0 := matgen.Dense[float64](rng, m, n)
			f := append([]float64(nil), a0...)
			ldt := n + 1
			tm := make([]float64, ldt*n)
			for i := range tm {
				tm[i] = sentinel
			}
			lapack.Geqrt(m, n, f, m, tm, ldt)

			u := append([]float64(nil), a0...)
			tau := make([]float64, n)
			lapack.Geqr2(m, n, u, m, tau, make([]float64, n))
			if r := residual(f, u, m); r > 30 {
				t.Errorf("m=%d n=%d: recursive and unblocked factors differ, residual %.1f", m, n, r)
			}
			tk := make([]float64, n*n)
			lapack.Lacpy(blas.Upper, n, n, tm, ldt, tk, n)
			for i := 0; i < n; i++ {
				tau[i] = tk[i+i*n]
			}
			if r := residual(tk, larftRef(m, n, explicitV(m, n, f, m), tau), n); r > 30 {
				t.Errorf("m=%d n=%d: T against dlarft's formula, residual %.1f", m, n, r)
			}
			for j := 0; j < n; j++ {
				for i := j + 1; i < ldt; i++ {
					if tm[i+j*ldt] != sentinel {
						t.Fatalf("m=%d n=%d: T(%d,%d) below the diagonal was written", m, n, i, j)
					}
				}
			}
			checkCompactWY(t, m, n, a0, f, tm, ldt)
		}
	}
	for _, d := range [][2]int{{1, 5}, {6, 7}, {5, 17}, {33, 96}} {
		m, n := d[0], d[1]
		rng := rand.New(rand.NewSource(int64(m + n)))
		a0 := matgen.Dense[float64](rng, m, n)
		f := append([]float64(nil), a0...)
		tm := make([]float64, m*m)
		lapack.Geqrt(m, n, f, m, tm, m)
		checkCompactWY(t, m, n, a0, f, tm, m)
	}
}

// TestLarfbAppliesQ checks Larfb from Geqrt's factors against the explicit
// Q = I − V·T·Vᵀ: Hᵀ·C (trans == Trans) must equal Qᵀ·C and H·C must equal
// Q·C, with the workspace's leading dimension larger than k.
func TestLarfbAppliesQ(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for _, d := range [][3]int{{40, 12, 7}, {20, 20, 3}, {9, 3, 11}} {
		m, k, n := d[0], d[1], d[2]
		f := matgen.Dense[float64](rng, m, k)
		tm := make([]float64, k*k)
		lapack.Geqrt(m, k, f, m, tm, k)
		v := explicitV(m, k, f, m)
		vt := make([]float64, m*k)
		blas.Gemm(blas.NoTrans, blas.NoTrans, m, k, k, 1, v, m, tm, k, 0, vt, m)
		q := make([]float64, m*m)
		for i := 0; i < m; i++ {
			q[i+i*m] = 1
		}
		blas.Gemm(blas.NoTrans, blas.Trans, m, m, k, -1, vt, m, v, m, 1, q, m)
		c := matgen.Dense[float64](rng, m, n)
		for _, trans := range []blas.Transpose{blas.NoTrans, blas.Trans} {
			got := append([]float64(nil), c...)
			ldw := k + 2
			lapack.Larfb(blas.Left, trans, m, n, k, f, m, tm, k, got, m, make([]float64, ldw*n), ldw)
			want := make([]float64, m*n)
			blas.Gemm(trans, blas.NoTrans, m, n, m, 1, q, m, c, m, 0, want, m)
			if r := residual(got, want, m); r > 30 {
				t.Errorf("m=%d k=%d n=%d trans=%v: Larfb against the explicit Q, residual %.1f", m, k, n, trans, r)
			}
		}
	}
}
