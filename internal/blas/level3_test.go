package blas

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGemmAgainstRef(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	dims := [][3]int{
		{0, 3, 2}, {1, 1, 1}, {2, 3, 4}, {5, 5, 5}, {7, 3, 11},
		{64, 64, 64}, {65, 63, 130}, {129, 31, 17}, {16, 200, 8},
	}
	for _, ta := range []Transpose{NoTrans, Trans} {
		for _, tb := range []Transpose{NoTrans, Trans} {
			for _, d := range dims {
				m, n, k := d[0], d[1], d[2]
				am, an := m, k
				if ta == Trans {
					am, an = k, m
				}
				bm, bn := k, n
				if tb == Trans {
					bm, bn = n, k
				}
				lda, ldb, ldc := am+1, bm+2, m+3
				a := randMat(rng, am, an, lda)
				b := randMat(rng, bm, bn, ldb)
				c := randMat(rng, m, n, ldc)
				cRef := append([]float64(nil), c...)
				alpha, beta := 1.7, -0.3
				Gemm(ta, tb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
				RefGemm(ta, tb, m, n, k, alpha, a, lda, b, ldb, beta, cRef, ldc)
				if d := maxAbsDiff(c, cRef); d > tol64*float64(k+1)*10 {
					t.Errorf("Gemm %v%v m=%d n=%d k=%d: max diff %g", ta, tb, m, n, k, d)
				}
			}
		}
	}
}

func TestGemmBetaZeroIgnoresNaN(t *testing.T) {
	// beta==0 must overwrite C even if it holds garbage that would poison
	// a multiply-based scaling.
	m, n, k := 4, 4, 4
	rng := rand.New(rand.NewSource(21))
	a := randMat(rng, m, k, m)
	b := randMat(rng, k, n, k)
	c := make([]float64, m*n)
	for i := range c {
		c[i] = nan()
	}
	Gemm(NoTrans, NoTrans, m, n, k, 1, a, m, b, k, 0, c, m)
	cRef := make([]float64, m*n)
	RefGemm(NoTrans, NoTrans, m, n, k, 1, a, m, b, k, 0, cRef, m)
	if d := maxAbsDiff(c, cRef); d > tol64*10 {
		t.Errorf("Gemm beta=0 with NaN C: max diff %g", d)
	}
}

func nan() float64 {
	var zero float64
	return zero / zero
}

func TestGemmSpecialScalars(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	m, n, k := 9, 8, 7
	a := randMat(rng, m, k, m)
	b := randMat(rng, k, n, k)
	c := randMat(rng, m, n, m)
	// alpha == 0 must reduce to C ← β·C.
	got := append([]float64(nil), c...)
	Gemm(NoTrans, NoTrans, m, n, k, 0, a, m, b, k, 0.5, got, m)
	want := append([]float64(nil), c...)
	for i := range want {
		want[i] *= 0.5
	}
	if d := maxAbsDiff(got, want); d > tol64 {
		t.Errorf("Gemm alpha=0: max diff %g", d)
	}
}

func TestSyrkAgainstRef(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, uplo := range []Uplo{Upper, Lower} {
		for _, trans := range []Transpose{NoTrans, Trans} {
			for _, d := range [][2]int{{1, 1}, {5, 3}, {16, 33}, {63, 17}} {
				n, k := d[0], d[1]
				am, an := n, k
				if trans == Trans {
					am, an = k, n
				}
				lda, ldc := am+1, n+1
				a := randMat(rng, am, an, lda)
				c := randMat(rng, n, n, ldc)
				cRef := append([]float64(nil), c...)
				Syrk(uplo, trans, n, k, 1.2, a, lda, 0.8, c, ldc)
				RefSyrk(uplo, trans, n, k, 1.2, a, lda, 0.8, cRef, ldc)
				if d := maxAbsDiff(c, cRef); d > tol64*float64(k+1)*10 {
					t.Errorf("Syrk %v %v n=%d k=%d: max diff %g", uplo, trans, n, k, d)
				}
			}
		}
	}
}

func TestSyrkOnlyTouchesTriangle(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	n, k := 12, 5
	a := randMat(rng, n, k, n)
	c := randMat(rng, n, n, n)
	orig := append([]float64(nil), c...)
	Syrk(Lower, NoTrans, n, k, 1, a, n, 1, c, n)
	for j := 0; j < n; j++ {
		for i := 0; i < j; i++ { // strict upper must be untouched
			if c[i+j*n] != orig[i+j*n] {
				t.Fatalf("Syrk Lower modified upper element (%d,%d)", i, j)
			}
		}
	}
}

func TestTrsmAgainstRef(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for _, side := range []Side{Left, Right} {
		for _, uplo := range []Uplo{Upper, Lower} {
			for _, trans := range []Transpose{NoTrans, Trans} {
				for _, diag := range []Diag{NonUnit, Unit} {
					for _, d := range [][2]int{{1, 1}, {4, 7}, {13, 6}, {32, 32}} {
						m, n := d[0], d[1]
						na := m
						if side == Right {
							na = n
						}
						lda, ldb := na+1, m+2
						a := randMat(rng, na, na, lda)
						for i := 0; i < na; i++ {
							v := a[i+i*lda]
							if v < 0 {
								v = -v
							}
							a[i+i*lda] = 2 + v
						}
						b := randMat(rng, m, n, ldb)
						bRef := append([]float64(nil), b...)
						Trsm(side, uplo, trans, diag, m, n, 0.7, a, lda, b, ldb)
						RefTrsm(side, uplo, trans, diag, m, n, 0.7, a, lda, bRef, ldb)
						if d := maxAbsDiff(b, bRef); d > 1e-10*float64(m+n) {
							t.Errorf("Trsm %v%v%v%v %dx%d: max diff %g",
								side, uplo, trans, diag, m, n, d)
						}
					}
				}
			}
		}
	}
}

func TestTrmmAgainstRef(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for _, side := range []Side{Left, Right} {
		for _, uplo := range []Uplo{Upper, Lower} {
			for _, trans := range []Transpose{NoTrans, Trans} {
				for _, diag := range []Diag{NonUnit, Unit} {
					m, n := 9, 6
					na := m
					if side == Right {
						na = n
					}
					a := randMat(rng, na, na, na)
					b := randMat(rng, m, n, m)
					bRef := append([]float64(nil), b...)
					Trmm(side, uplo, trans, diag, m, n, 1.4, a, na, b, m)
					RefTrmm(side, uplo, trans, diag, m, n, 1.4, a, na, bRef, m)
					if d := maxAbsDiff(b, bRef); d > 1e-10*float64(m+n) {
						t.Errorf("Trmm %v%v%v%v: max diff %g", side, uplo, trans, diag, d)
					}
				}
			}
		}
	}
}

func TestTrsmInvertsTrmm(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	m, n := 14, 10
	for _, side := range []Side{Left, Right} {
		for _, uplo := range []Uplo{Upper, Lower} {
			na := m
			if side == Right {
				na = n
			}
			a := randMat(rng, na, na, na)
			for i := 0; i < na; i++ {
				v := a[i+i*na]
				if v < 0 {
					v = -v
				}
				a[i+i*na] = 2 + v
			}
			b := randMat(rng, m, n, m)
			orig := append([]float64(nil), b...)
			Trmm(side, uplo, NoTrans, NonUnit, m, n, 1, a, na, b, m)
			Trsm(side, uplo, NoTrans, NonUnit, m, n, 1, a, na, b, m)
			if d := maxAbsDiff(b, orig); d > 1e-9 {
				t.Errorf("Trsm∘Trmm %v %v: diff %g", side, uplo, d)
			}
		}
	}
}

// Property: Gemm is bilinear in alpha — Gemm(2α) == 2·Gemm(α) contribution.
func TestGemmScalarLinearity(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, n, k := 1+r.Intn(20), 1+r.Intn(20), 1+r.Intn(20)
		a := randMat(r, m, k, m)
		b := randMat(r, k, n, k)
		c1 := make([]float64, m*n)
		c2 := make([]float64, m*n)
		Gemm(NoTrans, NoTrans, m, n, k, 2.0, a, m, b, k, 0, c1, m)
		Gemm(NoTrans, NoTrans, m, n, k, 1.0, a, m, b, k, 0, c2, m)
		for i := range c2 {
			c2[i] *= 2
		}
		return maxAbsDiff(c1, c2) < 1e-10*float64(k)
	}
	cfg := &quick.Config{MaxCount: 30, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: (A·B)ᵀ == Bᵀ·Aᵀ.
func TestGemmTransposeIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, n, k := 1+r.Intn(16), 1+r.Intn(16), 1+r.Intn(16)
		a := randMat(r, m, k, m)
		b := randMat(r, k, n, k)
		ab := make([]float64, m*n)
		Gemm(NoTrans, NoTrans, m, n, k, 1, a, m, b, k, 0, ab, m)
		// btat = Bᵀ·Aᵀ as an n×m matrix.
		btat := make([]float64, n*m)
		Gemm(Trans, Trans, n, m, k, 1, b, k, a, m, 0, btat, n)
		for j := 0; j < n; j++ {
			for i := 0; i < m; i++ {
				d := ab[i+j*m] - btat[j+i*n]
				if d < 0 {
					d = -d
				}
				if d > 1e-10*float64(k) {
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 30, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestGemmFloat32(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	m, n, k := 33, 29, 41
	a64 := randMat(rng, m, k, m)
	b64 := randMat(rng, k, n, k)
	a32 := make([]float32, len(a64))
	b32 := make([]float32, len(b64))
	for i := range a64 {
		a32[i] = float32(a64[i])
	}
	for i := range b64 {
		b32[i] = float32(b64[i])
	}
	c32 := make([]float32, m*n)
	c64 := make([]float64, m*n)
	Gemm(NoTrans, NoTrans, m, n, k, 1, a32, m, b32, k, 0, c32, m)
	Gemm(NoTrans, NoTrans, m, n, k, 1, a64, m, b64, k, 0, c64, m)
	for i := range c64 {
		d := float64(c32[i]) - c64[i]
		if d < 0 {
			d = -d
		}
		if d > tol32*float64(k) {
			t.Fatalf("float32 Gemm[%d]: %v vs %v", i, c32[i], c64[i])
		}
	}
}
