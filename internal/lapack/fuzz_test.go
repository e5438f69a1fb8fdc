package lapack_test

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"exadla/internal/lapack"
)

// FuzzGetrfDiff differentially fuzzes the recursive Getrf against the
// unblocked Getf2 on m×n matrices, 1 ≤ m, n ≤ 40 (wide enough that panels
// split several times above the Getf2 leaf), stored with padded leading
// dimensions: the pivots and the singular index must be identical, the
// factors must agree to rounding, and the padding must be untouched.
// Entries are drawn from the fuzzed seed so they stay O(1) and distinct;
// flag bit 0 zeroes one column, which stays exactly zero through the
// elimination and so makes both report the same singular pivot.
func FuzzGetrfDiff(f *testing.F) {
	f.Add(int64(1), uint8(39), uint8(39), uint8(0))
	f.Add(int64(2), uint8(32), uint8(16), uint8(0x0b))
	f.Add(int64(3), uint8(8), uint8(39), uint8(0x21))
	f.Add(int64(4), uint8(0), uint8(22), uint8(0))
	f.Add(int64(5), uint8(37), uint8(8), uint8(0x01))
	// Zero column 30 of 40: the singular pivot lies in the right half.
	f.Add(int64(6), uint8(39), uint8(39), uint8(0x3d))
	f.Fuzz(func(t *testing.T, seed int64, m8, n8, flags uint8) {
		m, n := 1+int(m8%40), 1+int(n8%40)
		rng := rand.New(rand.NewSource(seed))
		lda := m + rng.Intn(4)
		a := make([]float64, lda*n)
		for i := range a {
			a[i] = rng.NormFloat64()
		}
		if flags&1 != 0 {
			zero := int(flags>>1) % n
			for i := 0; i < m; i++ {
				a[i+zero*lda] = 0
			}
		}
		want, got := append([]float64(nil), a...), append([]float64(nil), a...)
		wp, gp := make([]int, min(m, n)), make([]int, min(m, n))
		werr := lapack.Getf2(m, n, want, lda, wp)
		gerr := lapack.Getrf(m, n, got, lda, gp)

		var wse, gse *lapack.SingularError
		if errors.As(werr, &wse) != errors.As(gerr, &gse) || wse != nil && wse.Index != gse.Index {
			t.Fatalf("%dx%d: Getrf error %v, Getf2 %v", m, n, gerr, werr)
		}
		for i := range wp {
			if gp[i] != wp[i] {
				t.Fatalf("%dx%d: ipiv[%d] = %d, Getf2 chose %d", m, n, i, gp[i], wp[i])
			}
		}
		var scale float64
		for _, v := range want {
			scale = max(scale, math.Abs(v))
		}
		tol := 1e-13 * float64(m+n) * max(scale, 1)
		for j := 0; j < n; j++ {
			for i := 0; i < lda; i++ {
				g, w := got[i+j*lda], want[i+j*lda]
				if i >= m && math.Float64bits(g) != math.Float64bits(a[i+j*lda]) {
					t.Fatalf("%dx%d lda=%d: padding (%d,%d) overwritten", m, n, lda, i, j)
				}
				if math.Abs(g-w) > tol {
					t.Fatalf("%dx%d: factor (%d,%d) = %g, Getf2 %g", m, n, i, j, g, w)
				}
			}
		}
	})
}
