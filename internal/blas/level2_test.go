package blas

import (
	"math"
	"math/rand"
	"testing"
)

func TestGemvAgainstRef(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, trans := range []Transpose{NoTrans, Trans} {
		for _, dims := range [][2]int{{0, 3}, {1, 1}, {5, 3}, {3, 5}, {17, 23}, {64, 64}} {
			m, n := dims[0], dims[1]
			lda := m + 2
			if lda < 1 {
				lda = 1
			}
			a := randMat(rng, m, n, lda)
			lx, ly := n, m
			if trans == Trans {
				lx, ly = m, n
			}
			x := randSlice(rng, lx)
			y := randSlice(rng, ly)
			yRef := append([]float64(nil), y...)
			alpha, beta := 1.3, -0.7
			Gemv(trans, m, n, alpha, a, lda, x, 1, beta, y, 1)
			RefGemv(trans, m, n, alpha, a, lda, x, 1, beta, yRef, 1)
			if d := maxAbsDiff(y, yRef); d > tol64*float64(m+n+1) {
				t.Errorf("Gemv %v %dx%d: max diff %g", trans, m, n, d)
			}
		}
	}
}

func TestGemvStrided(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m, n := 9, 7
	lda := m
	a := randMat(rng, m, n, lda)
	x := randSlice(rng, 2*n)
	y := randSlice(rng, 3*m)
	yRef := append([]float64(nil), y...)
	Gemv(NoTrans, m, n, 2.0, a, lda, x, 2, 0.5, y, 3)
	RefGemv(NoTrans, m, n, 2.0, a, lda, x, 2, 0.5, yRef, 3)
	if d := maxAbsDiff(y, yRef); d > tol64*float64(m+n) {
		t.Errorf("strided Gemv: max diff %g", d)
	}
}

func TestGer(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	m, n := 13, 8
	lda := m + 1
	a := randMat(rng, m, n, lda)
	aRef := append([]float64(nil), a...)
	x := randSlice(rng, m)
	y := randSlice(rng, n)
	Ger(m, n, 1.5, x, 1, y, 1, a, lda)
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			aRef[i+j*lda] += 1.5 * x[i] * y[j]
		}
	}
	if d := maxAbsDiff(a, aRef); d > tol64 {
		t.Errorf("Ger: max diff %g", d)
	}
}

// TestSymv checks Symv against Gemv on the full symmetric matrix for both
// triangles, at sizes around and off the multiples of 4, with the
// unreferenced triangle holding the sentinel, so reading it blows the
// tolerance. Strided vectors, negative strides included, must give the
// unit-stride result bit for bit and leave the gaps untouched.
func TestSymv(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{1, 2, 7, 11, 33} {
		lda := n + 2
		full := randMat(rng, n, n, lda)
		for j := 0; j < n; j++ {
			for i := 0; i < j; i++ {
				full[j+i*lda] = full[i+j*lda]
			}
		}
		x := randSlice(rng, n)
		y0 := randSlice(rng, n)
		want := append([]float64(nil), y0...)
		RefGemv(NoTrans, n, n, 0.9, full, lda, x, 1, 1.1, want, 1)
		for _, uplo := range []Uplo{Upper, Lower} {
			a := append([]float64(nil), full...)
			for j := 0; j < n; j++ {
				for i := 0; i < n; i++ {
					if (uplo == Upper && i > j) || (uplo == Lower && i < j) {
						a[i+j*lda] = padSentinel
					}
				}
			}
			y := append([]float64(nil), y0...)
			Symv(uplo, n, 0.9, a, lda, x, 1, 1.1, y, 1)
			if d := maxAbsDiff(y, want); d > tol64*float64(n) {
				t.Errorf("Symv %v n=%d: max diff %g", uplo, n, d)
			}
			for _, inc := range [][2]int{{2, 3}, {-2, 1}, {1, -3}} {
				ys := strided(y0, inc[1])
				Symv(uplo, n, 0.9, a, lda, strided(x, inc[0]), inc[0], 1.1, ys, inc[1])
				got := unstrided(t, ys, n, inc[1])
				if i := sameBits(got, y); i >= 0 {
					t.Errorf("Symv %v n=%d incX=%d incY=%d: y[%d] = %g, unit stride %g", uplo, n, inc[0], inc[1], i, got[i], y[i])
				}
			}
		}
	}
}

// unstrided reads the n logical elements of s back out of strided's
// layout, failing the test if a gap lost its 7.
func unstrided(t *testing.T, s []float64, n, inc int) []float64 {
	t.Helper()
	v := make([]float64, n)
	for i := range v {
		p := vstart(n, inc) + i*inc
		v[i], s[p] = s[p], 7
	}
	for i, x := range s {
		if x != 7 {
			t.Fatalf("strided vector written at gap %d", i)
		}
	}
	return v
}

func TestTrmvTrsvRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	n := 16
	lda := n
	for _, uplo := range []Uplo{Upper, Lower} {
		for _, trans := range []Transpose{NoTrans, Trans} {
			for _, diag := range []Diag{NonUnit, Unit} {
				a := randMat(rng, n, n, lda)
				// Make the diagonal well-conditioned.
				for i := 0; i < n; i++ {
					a[i+i*lda] = 2 + math.Abs(a[i+i*lda])
				}
				x := randSlice(rng, n)
				orig := append([]float64(nil), x...)
				Trmv(uplo, trans, diag, n, a, lda, x, 1)
				Trsv(uplo, trans, diag, n, a, lda, x, 1)
				if d := maxAbsDiff(x, orig); d > 1e-10 {
					t.Errorf("Trmv/Trsv %v %v %v: round-trip diff %g", uplo, trans, diag, d)
				}
			}
		}
	}
}

func TestTrsvSolvesSystem(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	n := 20
	lda := n
	for _, uplo := range []Uplo{Upper, Lower} {
		for _, trans := range []Transpose{NoTrans, Trans} {
			a := randMat(rng, n, n, lda)
			for i := 0; i < n; i++ {
				a[i+i*lda] = 3 + math.Abs(a[i+i*lda])
			}
			xTrue := randSlice(rng, n)
			// b = op(T)·x where T is the referenced triangle.
			b := append([]float64(nil), xTrue...)
			Trmv(uplo, trans, NonUnit, n, a, lda, b, 1)
			Trsv(uplo, trans, NonUnit, n, a, lda, b, 1)
			if d := maxAbsDiff(b, xTrue); d > 1e-9 {
				t.Errorf("Trsv %v %v: solution diff %g", uplo, trans, d)
			}
		}
	}
}

func TestTrmvStrided(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	n := 8
	a := randMat(rng, n, n, n)
	x := randSlice(rng, 2*n)
	dense := make([]float64, n)
	for i := 0; i < n; i++ {
		dense[i] = x[2*i]
	}
	Trmv(Lower, NoTrans, NonUnit, n, a, n, x, 2)
	Trmv(Lower, NoTrans, NonUnit, n, a, n, dense, 1)
	for i := 0; i < n; i++ {
		if math.Abs(x[2*i]-dense[i]) > tol64 {
			t.Fatalf("strided Trmv[%d]: %v vs %v", i, x[2*i], dense[i])
		}
	}
}
