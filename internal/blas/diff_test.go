package blas

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Differential quick-checks: the blocked/fast level-3 kernels against the
// textbook reference loops in ref.go, under randomized transpose flags,
// padded leading dimensions, non-square (including empty) shapes, and the
// special alpha/beta values that trigger early-out paths.
//
// Leading-dimension padding is filled with a large sentinel so that any
// out-of-bounds read poisons the result and any out-of-bounds write is
// caught by the explicit padding check.

const padSentinel = 1e30

// randPadded builds an m×n column-major matrix with leading dimension ld,
// active entries ~N(0,1) and padding rows set to the sentinel.
func randPadded(rng *rand.Rand, m, n, ld int) []float64 {
	s := make([]float64, ld*n)
	for j := 0; j < n; j++ {
		for i := 0; i < ld; i++ {
			if i < m {
				s[i+j*ld] = rng.NormFloat64()
			} else {
				s[i+j*ld] = padSentinel
			}
		}
	}
	return s
}

// checkPadding fails the test if any padding row of the m×n/ld matrix was
// overwritten.
func checkPadding[T Float](t *testing.T, name string, m, n, ld int, s []T) {
	t.Helper()
	for j := 0; j < n; j++ {
		for i := m; i < ld; i++ {
			if s[i+j*ld] != T(padSentinel) {
				t.Fatalf("%s: padding clobbered at (%d,%d)", name, i, j)
			}
		}
	}
}

// pickScalar draws alpha/beta from a mix of the special values (0, 1, -1)
// that gate early-out paths and generic random values.
func pickScalar(rng *rand.Rand) float64 {
	switch rng.Intn(5) {
	case 0:
		return 0
	case 1:
		return 1
	case 2:
		return -1
	default:
		return rng.NormFloat64()
	}
}

func quickCfg(seed int64) *quick.Config {
	return &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(seed))}
}

func TestDiffGemm(t *testing.T) {
	transes := []Transpose{NoTrans, Trans}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		transA := transes[rng.Intn(2)]
		transB := transes[rng.Intn(2)]
		// Sizes cross the gemmKC/gemmNC block boundaries occasionally and
		// include empty dims.
		m, n, k := rng.Intn(36), rng.Intn(36), rng.Intn(140)
		ar, ac := m, k
		if transA == Trans {
			ar, ac = k, m
		}
		br, bc := k, n
		if transB == Trans {
			br, bc = n, k
		}
		lda := max(1, ar) + rng.Intn(4)
		ldb := max(1, br) + rng.Intn(4)
		ldc := max(1, m) + rng.Intn(4)
		a := randPadded(rng, ar, ac, lda)
		b := randPadded(rng, br, bc, ldb)
		c := randPadded(rng, m, n, ldc)
		alpha, beta := pickScalar(rng), pickScalar(rng)

		got := append([]float64(nil), c...)
		want := append([]float64(nil), c...)
		Gemm(transA, transB, m, n, k, alpha, a, lda, b, ldb, beta, got, ldc)
		RefGemm(transA, transB, m, n, k, alpha, a, lda, b, ldb, beta, want, ldc)
		checkPadding(t, "Gemm C", m, n, ldc, got)
		return maxAbsDiff(got, want) <= 1e-10*float64(k+1)
	}
	if err := quick.Check(f, quickCfg(21)); err != nil {
		t.Error(err)
	}
}

func TestDiffSyrk(t *testing.T) {
	uplos := []Uplo{Upper, Lower}
	transes := []Transpose{NoTrans, Trans}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		uplo := uplos[rng.Intn(2)]
		trans := transes[rng.Intn(2)]
		// Sizes cover many register tiles on and off the diagonal, and
		// partial ones at every edge.
		n, k := rng.Intn(90), rng.Intn(60)
		ar, ac := n, k
		if trans == Trans {
			ar, ac = k, n
		}
		lda := max(1, ar) + rng.Intn(4)
		ldc := max(1, n) + rng.Intn(4)
		a := randPadded(rng, ar, ac, lda)
		c := randPadded(rng, n, n, ldc)
		alpha, beta := pickScalar(rng), pickScalar(rng)

		got := append([]float64(nil), c...)
		want := append([]float64(nil), c...)
		Syrk(uplo, trans, n, k, alpha, a, lda, beta, got, ldc)
		RefSyrk(uplo, trans, n, k, alpha, a, lda, beta, want, ldc)
		checkPadding(t, "Syrk C", n, n, ldc, got)
		// The unreferenced triangle must be bit-identical to the input;
		// comparing the full buffers covers that too since want shares it.
		return maxAbsDiff(got, want) <= 1e-10*float64(k+1)
	}
	if err := quick.Check(f, quickCfg(22)); err != nil {
		t.Error(err)
	}
}

func TestDiffTrsm(t *testing.T) {
	sides := []Side{Left, Right}
	uplos := []Uplo{Upper, Lower}
	transes := []Transpose{NoTrans, Trans}
	diags := []Diag{NonUnit, Unit}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		side := sides[rng.Intn(2)]
		uplo := uplos[rng.Intn(2)]
		trans := transes[rng.Intn(2)]
		diag := diags[rng.Intn(2)]
		// Sizes cover many triangle blocks and vector slivers of the packed
		// sweep, partial ones at every edge, and the thin-RHS Trsv path.
		m, n := rng.Intn(90), rng.Intn(90)
		na := m
		if side == Right {
			na = n
		}
		lda := max(1, na) + rng.Intn(4)
		ldb := max(1, m) + rng.Intn(4)
		a := randPadded(rng, na, na, lda)
		conditionedTriangle(a, na, lda)
		b := randPadded(rng, m, n, ldb)
		alpha := pickScalar(rng)

		got := append([]float64(nil), b...)
		want := append([]float64(nil), b...)
		Trsm(side, uplo, trans, diag, m, n, alpha, a, lda, got, ldb)
		RefTrsm(side, uplo, trans, diag, m, n, alpha, a, lda, want, ldb)
		checkPadding(t, "Trsm B", m, n, ldb, got)
		return maxAbsDiff(got, want) <= 1e-8
	}
	if err := quick.Check(f, quickCfg(23)); err != nil {
		t.Error(err)
	}
}

func TestDiffTrmm(t *testing.T) {
	sides := []Side{Left, Right}
	uplos := []Uplo{Upper, Lower}
	transes := []Transpose{NoTrans, Trans}
	diags := []Diag{NonUnit, Unit}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		side := sides[rng.Intn(2)]
		uplo := uplos[rng.Intn(2)]
		trans := transes[rng.Intn(2)]
		diag := diags[rng.Intn(2)]
		// Sizes include empty shapes, the thin Trmv path and several
		// register tiles of the packed sweep.
		m, n := rng.Intn(90), rng.Intn(90)
		na := m
		if side == Right {
			na = n
		}
		lda := max(1, na) + rng.Intn(4)
		ldb := max(1, m) + rng.Intn(4)
		a := randPadded(rng, na, na, lda)
		b := randPadded(rng, m, n, ldb)
		alpha := pickScalar(rng)

		got := append([]float64(nil), b...)
		want := append([]float64(nil), b...)
		Trmm(side, uplo, trans, diag, m, n, alpha, a, lda, got, ldb)
		RefTrmm(side, uplo, trans, diag, m, n, alpha, a, lda, want, ldb)
		checkPadding(t, "Trmm B", m, n, ldb, got)
		return maxAbsDiff(got, want) <= 1e-10*float64(na+1)
	}
	if err := quick.Check(f, quickCfg(24)); err != nil {
		t.Error(err)
	}
}
