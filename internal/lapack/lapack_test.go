package lapack_test

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"exadla/internal/blas"
	"exadla/internal/lapack"
	"exadla/internal/matgen"
)

// residual computes ‖X − Y‖_max / (‖Y‖_max·n·ε), the standard normalized
// backward-error style metric: values of O(1–10) indicate a numerically
// correct factorization.
func residual(x, y []float64, n int) float64 {
	var diff, norm float64
	for i := range x {
		d := math.Abs(x[i] - y[i])
		if d > diff {
			diff = d
		}
		if a := math.Abs(y[i]); a > norm {
			norm = a
		}
	}
	if norm == 0 {
		norm = 1
	}
	return diff / (norm * float64(n) * 0x1p-52)
}

func extractLower(n int, a []float64, lda int, unit bool) []float64 {
	l := make([]float64, n*n)
	for j := 0; j < n; j++ {
		for i := j; i < n; i++ {
			l[i+j*n] = a[i+j*lda]
		}
		if unit {
			l[j+j*n] = 1
		}
	}
	return l
}

func extractUpper(m, n int, a []float64, lda int) []float64 {
	u := make([]float64, m*n)
	for j := 0; j < n; j++ {
		for i := 0; i <= min(j, m-1); i++ {
			u[i+j*m] = a[i+j*lda]
		}
	}
	return u
}

func TestPotrfReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 10, 63, 64, 65, 200} {
		for _, uplo := range []blas.Uplo{blas.Lower, blas.Upper} {
			a := matgen.DiagDomSPD[float64](rng, n)
			f := append([]float64(nil), a...)
			if err := lapack.Potrf(uplo, n, f, n); err != nil {
				t.Fatalf("n=%d %v: %v", n, uplo, err)
			}
			recon := make([]float64, n*n)
			if uplo == blas.Lower {
				l := extractLower(n, f, n, false)
				blas.Gemm(blas.NoTrans, blas.Trans, n, n, n, 1, l, n, l, n, 0, recon, n)
			} else {
				u := extractUpper(n, n, f, n)
				blas.Gemm(blas.Trans, blas.NoTrans, n, n, n, 1, u, n, u, n, 0, recon, n)
			}
			if r := residual(recon, a, n); r > 30 {
				t.Errorf("n=%d %v: reconstruction residual %g", n, uplo, r)
			}
		}
	}
}

func TestPotrfMatchesUnblocked(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 150 // forces blocking
	a := matgen.DiagDomSPD[float64](rng, n)
	blocked := append([]float64(nil), a...)
	unblocked := append([]float64(nil), a...)
	if err := lapack.Potrf(blas.Lower, n, blocked, n); err != nil {
		t.Fatal(err)
	}
	if err := lapack.Potf2(blas.Lower, n, unblocked, n); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < n; j++ {
		for i := j; i < n; i++ {
			d := math.Abs(blocked[i+j*n] - unblocked[i+j*n])
			if d > 1e-10 {
				t.Fatalf("blocked/unblocked diverge at (%d,%d): %g", i, j, d)
			}
		}
	}
}

func TestPotrfNotPositiveDefinite(t *testing.T) {
	// Indefinite matrix: identity with a negative entry at position 2.
	n := 5
	a := matgen.Identity[float64](n)
	a[2+2*n] = -1
	err := lapack.Potrf(blas.Lower, n, a, n)
	var pd *lapack.NotPositiveDefiniteError
	if !errors.As(err, &pd) {
		t.Fatalf("expected NotPositiveDefiniteError, got %v", err)
	}
	if pd.Index != 2 {
		t.Errorf("index: got %d want 2", pd.Index)
	}
}

// TestPotrfNaNPivot: a NaN that reaches a pivot stops the factorization
// like a non-positive one, at that pivot's index, in both triangles and
// through the blocked recursion. A NaN on the diagonal is its own pivot;
// one below (Lower) or right of (Upper) it reaches the pivot of its row
// (column). A NaN pivot compares false with 0, so "d <= 0" let it through.
func TestPotrfNaNPivot(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for _, tc := range []struct {
		name      string
		n, i, j   int // NaN at (i,j) of the referenced triangle
		wantPivot int
	}{
		{"diagonal", 5, 2, 2, 2},
		{"off-diagonal", 5, 3, 1, 3},
		{"diagonal blocked", 130, 100, 100, 100},
		{"off-diagonal blocked", 130, 100, 10, 100},
	} {
		for _, uplo := range []blas.Uplo{blas.Lower, blas.Upper} {
			a := matgen.DiagDomSPD[float64](rng, tc.n)
			i, j := tc.i, tc.j
			if uplo == blas.Upper {
				i, j = j, i
			}
			a[i+j*tc.n] = math.NaN()
			err := lapack.Potrf(uplo, tc.n, a, tc.n)
			var pd *lapack.NotPositiveDefiniteError
			if !errors.As(err, &pd) || pd.Index != tc.wantPivot {
				t.Errorf("%s, uplo %v: got %v, want a NotPositiveDefiniteError at %d", tc.name, uplo, err, tc.wantPivot)
			}
		}
	}
}

func TestPotrfNotPDBlocked(t *testing.T) {
	// The failing minor must be reported with a global index even when it
	// falls in a later block.
	rng := rand.New(rand.NewSource(3))
	n := 130
	a := matgen.DiagDomSPD[float64](rng, n)
	bad := 100
	a[bad+bad*n] = -1e6 // destroys positive definiteness at this minor
	err := lapack.Potrf(blas.Lower, n, a, n)
	var pd *lapack.NotPositiveDefiniteError
	if !errors.As(err, &pd) {
		t.Fatalf("expected NotPositiveDefiniteError, got %v", err)
	}
	if pd.Index != bad {
		t.Errorf("index: got %d want %d", pd.Index, bad)
	}
}

func TestPosvSolves(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, uplo := range []blas.Uplo{blas.Lower, blas.Upper} {
		n, nrhs := 80, 3
		a := matgen.DiagDomSPD[float64](rng, n)
		xTrue := matgen.Dense[float64](rng, n, nrhs)
		b := make([]float64, n*nrhs)
		blas.Gemm(blas.NoTrans, blas.NoTrans, n, nrhs, n, 1, a, n, xTrue, n, 0, b, n)
		f := append([]float64(nil), a...)
		if err := lapack.Posv(uplo, n, nrhs, f, n, b, n); err != nil {
			t.Fatal(err)
		}
		if r := residual(b, xTrue, n); r > 1e4 {
			t.Errorf("%v: solution residual %g", uplo, r)
		}
	}
}

func reconstructLU(m, n int, f []float64, lda int, ipiv []int) []float64 {
	k := min(m, n)
	l := make([]float64, m*k)
	for j := 0; j < k; j++ {
		l[j+j*m] = 1
		for i := j + 1; i < m; i++ {
			l[i+j*m] = f[i+j*lda]
		}
	}
	u := extractUpper(k, n, f, lda)
	recon := make([]float64, m*n)
	blas.Gemm(blas.NoTrans, blas.NoTrans, m, n, k, 1, l, m, u, k, 0, recon, m)
	// Undo the recorded row swaps (reverse order) to recover A.
	for i := k - 1; i >= 0; i-- {
		if p := ipiv[i]; p != i {
			blas.Swap(n, recon[i:], m, recon[p:], m)
		}
	}
	return recon
}

func TestGetrfReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	dims := [][2]int{{1, 1}, {5, 5}, {10, 7}, {7, 10}, {64, 64}, {65, 65}, {150, 100}, {100, 150}, {200, 200}}
	for _, d := range dims {
		m, n := d[0], d[1]
		a := matgen.Dense[float64](rng, m, n)
		f := append([]float64(nil), a...)
		ipiv := make([]int, min(m, n))
		if err := lapack.Getrf(m, n, f, m, ipiv); err != nil {
			t.Fatalf("%dx%d: unexpected error %v", m, n, err)
		}
		recon := reconstructLU(m, n, f, m, ipiv)
		if r := residual(recon, a, max(m, n)); r > 30 {
			t.Errorf("%dx%d: reconstruction residual %g", m, n, r)
		}
	}
}

func TestGetrfPivotsAreMaximal(t *testing.T) {
	// With partial pivoting all multipliers (entries of L below the
	// diagonal) have magnitude ≤ 1.
	rng := rand.New(rand.NewSource(6))
	m, n := 90, 90
	f := matgen.Dense[float64](rng, m, n)
	ipiv := make([]int, n)
	if err := lapack.Getrf(m, n, f, m, ipiv); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < n; j++ {
		for i := j + 1; i < m; i++ {
			if math.Abs(f[i+j*m]) > 1+1e-14 {
				t.Fatalf("multiplier L[%d,%d] = %v exceeds 1", i, j, f[i+j*m])
			}
		}
	}
}

func TestGesvSolves(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n, nrhs := 120, 2
	a := matgen.Dense[float64](rng, n, n)
	xTrue := matgen.Dense[float64](rng, n, nrhs)
	b := make([]float64, n*nrhs)
	blas.Gemm(blas.NoTrans, blas.NoTrans, n, nrhs, n, 1, a, n, xTrue, n, 0, b, n)
	f := append([]float64(nil), a...)
	ipiv := make([]int, n)
	if err := lapack.Gesv(n, nrhs, f, n, ipiv, b, n); err != nil {
		t.Fatal(err)
	}
	if r := residual(b, xTrue, n); r > 1e6 {
		t.Errorf("solution residual %g", r)
	}
}

func TestGetrsTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n := 60
	a := matgen.Dense[float64](rng, n, n)
	xTrue := matgen.Dense[float64](rng, n, 1)
	// b = Aᵀ·x.
	b := make([]float64, n)
	blas.Gemv(blas.Trans, n, n, 1, a, n, xTrue, 1, 0, b, 1)
	f := append([]float64(nil), a...)
	ipiv := make([]int, n)
	if err := lapack.Getrf(n, n, f, n, ipiv); err != nil {
		t.Fatal(err)
	}
	lapack.Getrs(blas.Trans, n, 1, f, n, ipiv, b, n)
	if r := residual(b, xTrue, n); r > 1e5 {
		t.Errorf("transpose solve residual %g", r)
	}
}

func TestGetrfSingular(t *testing.T) {
	n := 6
	a := make([]float64, n*n) // all zeros: singular immediately
	ipiv := make([]int, n)
	err := lapack.Getrf(n, n, a, n, ipiv)
	var se *lapack.SingularError
	if !errors.As(err, &se) {
		t.Fatalf("expected SingularError, got %v", err)
	}
	if se.Index != 0 {
		t.Errorf("index: got %d want 0", se.Index)
	}
}

func TestGetrfSingularLaterColumn(t *testing.T) {
	// An exactly-zero column stays exactly zero through elimination, so the
	// zero pivot is discovered at that column.
	rng := rand.New(rand.NewSource(9))
	n := 10
	a := matgen.Dense[float64](rng, n, n)
	for i := 0; i < n; i++ {
		a[i+3*n] = 0
	}
	ipiv := make([]int, n)
	err := lapack.Getrf(n, n, a, n, ipiv)
	var se *lapack.SingularError
	if !errors.As(err, &se) {
		t.Fatalf("expected SingularError, got %v", err)
	}
	if se.Index != 3 {
		t.Errorf("index: got %d want 3", se.Index)
	}
}

func TestLaswpRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	m, n := 12, 5
	a := matgen.Dense[float64](rng, m, n)
	orig := append([]float64(nil), a...)
	ipiv := []int{3, 5, 2, 9, 4, 5, 6, 11, 8, 9, 10, 11}
	lapack.Laswp(n, a, m, 0, m, ipiv)
	// Reverse.
	for i := m - 1; i >= 0; i-- {
		if p := ipiv[i]; p != i {
			blas.Swap(n, a[i:], m, a[p:], m)
		}
	}
	for i := range a {
		if a[i] != orig[i] {
			t.Fatal("Laswp round-trip mismatch")
		}
	}
}

func TestLangeNorms(t *testing.T) {
	// 2×3 matrix with known norms.
	// A = [1 -2 3; -4 5 -6] column-major.
	a := []float64{1, -4, -2, 5, 3, -6}
	m, n := 2, 3
	if got := lapack.Lange(lapack.MaxAbs, m, n, a, m); got != 6 {
		t.Errorf("MaxAbs: got %v", got)
	}
	if got := lapack.Lange(lapack.OneNorm, m, n, a, m); got != 9 {
		t.Errorf("OneNorm: got %v", got)
	}
	if got := lapack.Lange(lapack.InfNorm, m, n, a, m); got != 15 {
		t.Errorf("InfNorm: got %v", got)
	}
	want := math.Sqrt(1 + 4 + 9 + 16 + 25 + 36)
	if got := lapack.Lange(lapack.FrobeniusNorm, m, n, a, m); math.Abs(got-want) > 1e-14 {
		t.Errorf("Frobenius: got %v want %v", got, want)
	}
}

// TestLansyMatchesLange checks Lansy on one stored triangle, with the
// other triangle and the padding rows poisoned with NaN, against Lange on
// the whole symmetric matrix, whose entries take both signs.
func TestLansyMatchesLange(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n, lda = 17, 19
	full := matgen.DiagDomSPD[float64](rng, n)
	for j := 0; j < n; j++ {
		for i := 0; i < j; i++ {
			v := rng.NormFloat64()
			full[i+j*n], full[j+i*n] = v, v
		}
	}
	for _, norm := range []lapack.Norm{lapack.OneNorm, lapack.InfNorm, lapack.MaxAbs, lapack.FrobeniusNorm} {
		want := lapack.Lange(norm, n, n, full, n)
		for _, uplo := range []blas.Uplo{blas.Lower, blas.Upper} {
			a := make([]float64, lda*n)
			for j := 0; j < n; j++ {
				for i := 0; i < lda; i++ {
					a[i+j*lda] = math.NaN()
					if i < n && (uplo == blas.Lower) == (i >= j) || i == j {
						a[i+j*lda] = full[i+j*n]
					}
				}
			}
			got := lapack.Lansy(norm, uplo, n, a, lda)
			if math.Abs(got-want) > 1e-12*want {
				t.Errorf("Lansy %c %v: got %v want %v", norm, uplo, got, want)
			}
		}
	}
}

func TestLacpyLaset(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	m, n := 7, 5
	a := matgen.Dense[float64](rng, m, n)
	b := make([]float64, m*n)
	lapack.Lacpy(lapack.General, m, n, a, m, b, m)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Lacpy General mismatch")
		}
	}
	lapack.Laset(lapack.General, m, n, 0, 1, b, m)
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if b[i+j*m] != want {
				t.Fatalf("Laset(%d,%d) = %v", i, j, b[i+j*m])
			}
		}
	}
	// Triangle-restricted copy leaves the other triangle alone.
	c := make([]float64, m*n)
	lapack.Lacpy(blas.Lower, m, n, a, m, c, m)
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			want := 0.0
			if i >= j {
				want = a[i+j*m]
			}
			if c[i+j*m] != want {
				t.Fatalf("Lacpy Lower (%d,%d): %v want %v", i, j, c[i+j*m], want)
			}
		}
	}
}

func TestEpsilon(t *testing.T) {
	if e := lapack.Epsilon[float64](); e != 0x1p-52 {
		t.Errorf("float64 epsilon: %v", e)
	}
	if e := lapack.Epsilon[float32](); float64(e) != 0x1p-23 {
		t.Errorf("float32 epsilon: %v", e)
	}
}

func TestPotrfFloat32(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n := 50
	a := matgen.DiagDomSPD[float32](rng, n)
	f := append([]float32(nil), a...)
	if err := lapack.Potrf(blas.Lower, n, f, n); err != nil {
		t.Fatal(err)
	}
	// Reconstruct in float32 and compare with tolerance scaled to ε₃₂.
	l := make([]float32, n*n)
	for j := 0; j < n; j++ {
		for i := j; i < n; i++ {
			l[i+j*n] = f[i+j*n]
		}
	}
	recon := make([]float32, n*n)
	blas.Gemm(blas.NoTrans, blas.Trans, n, n, n, 1, l, n, l, n, 0, recon, n)
	var maxDiff, maxA float64
	for i := range a {
		if d := math.Abs(float64(recon[i] - a[i])); d > maxDiff {
			maxDiff = d
		}
		if v := math.Abs(float64(a[i])); v > maxA {
			maxA = v
		}
	}
	if maxDiff > maxA*float64(n)*0x1p-23*30 {
		t.Errorf("float32 reconstruction diff %g (‖A‖=%g)", maxDiff, maxA)
	}
}
