package core_test

import (
	"math"
	"math/rand"
	"testing"

	"exadla/internal/blas"
	"exadla/internal/core"
	"exadla/internal/lapack"
	"exadla/internal/matgen"
	"exadla/internal/tile"
)

// lowerOf extracts the lower triangle (dense storage) from a tiled matrix.
func lowerOf(a *tile.Matrix[float64]) []float64 {
	n := a.N
	d := a.ToColMajor()
	out := make([]float64, n*n)
	for j := 0; j < n; j++ {
		for i := j; i < n; i++ {
			out[i+j*n] = d[i+j*n]
		}
	}
	return out
}

func TestTrtriLowerTiles(t *testing.T) {
	for name, mk := range schedulers(t) {
		for _, d := range [][2]int{{16, 8}, {33, 8}, {64, 16}, {96, 32}} {
			n, nb := d[0], d[1]
			rng := rand.New(rand.NewSource(int64(n)))
			lD := matgen.Dense[float64](rng, n, n)
			for i := 0; i < n; i++ {
				lD[i+i*n] = 2 + math.Abs(lD[i+i*n])
			}
			// Reference inverse of the lower triangle.
			want := append([]float64(nil), lD...)
			if err := lapack.Trtri(blas.Lower, blas.NonUnit, n, want, n); err != nil {
				t.Fatal(err)
			}

			a := tile.FromColMajor(n, n, lD, n, nb)
			s, done := mk()
			core.InverseSweep(s, a, 0)
			s.Wait()
			done()
			got := lowerOf(a)
			for j := 0; j < n; j++ {
				for i := j; i < n; i++ {
					if math.Abs(got[i+j*n]-want[i+j*n]) > 1e-9*(1+math.Abs(want[i+j*n])) {
						t.Fatalf("%s n=%d nb=%d: L⁻¹(%d,%d) = %v want %v",
							name, n, nb, i, j, got[i+j*n], want[i+j*n])
					}
				}
			}
		}
	}
}

func TestLauumLowerTiles(t *testing.T) {
	for name, mk := range schedulers(t) {
		for _, d := range [][2]int{{16, 8}, {40, 8}, {64, 16}} {
			n, nb := d[0], d[1]
			rng := rand.New(rand.NewSource(int64(n * 3)))
			lD := matgen.Dense[float64](rng, n, n)
			want := append([]float64(nil), lD...)
			lapack.Lauum(blas.Lower, n, want, n)

			a := tile.FromColMajor(n, n, lD, n, nb)
			s, done := mk()
			core.InverseSweep(s, a, 1)
			s.Wait()
			done()
			got := a.ToColMajor()
			for j := 0; j < n; j++ {
				for i := j; i < n; i++ {
					if math.Abs(got[i+j*n]-want[i+j*n]) > 1e-10*float64(n)*(1+math.Abs(want[i+j*n])) {
						t.Fatalf("%s n=%d nb=%d: (WᵀW)(%d,%d) = %v want %v",
							name, n, nb, i, j, got[i+j*n], want[i+j*n])
					}
				}
			}
		}
	}
}

func TestTilePotri(t *testing.T) {
	for name, mk := range schedulers(t) {
		n, nb := 80, 16
		rng := rand.New(rand.NewSource(7))
		aD := matgen.DiagDomSPD[float64](rng, n)
		a := tile.FromColMajor(n, n, aD, n, nb)
		s, done := mk()
		if err := core.Potri(s, a); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		done()
		// A · A⁻¹ ≈ I using the symmetric inverse from the lower triangle.
		invL := lowerOf(a)
		inv := make([]float64, n*n)
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				if i >= j {
					inv[i+j*n] = invL[i+j*n]
				} else {
					inv[i+j*n] = invL[j+i*n]
				}
			}
		}
		prod := make([]float64, n*n)
		blas.Gemm(blas.NoTrans, blas.NoTrans, n, n, n, 1, aD, n, inv, n, 0, prod, n)
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				want := 0.0
				if i == j {
					want = 1
				}
				if math.Abs(prod[i+j*n]-want) > 1e-9*float64(n) {
					t.Fatalf("%s: A·A⁻¹(%d,%d) = %v", name, i, j, prod[i+j*n])
				}
			}
		}
	}
}

func TestTilePotriNotPD(t *testing.T) {
	n, nb := 32, 8
	aD := matgen.Identity[float64](n)
	aD[5+5*n] = -2
	a := tile.FromColMajor(n, n, aD, n, nb)
	r, done := schedulers(t)["runtime4"]()
	defer done()
	if err := core.Potri(r, a); err == nil {
		t.Error("expected not-positive-definite error")
	}
}
