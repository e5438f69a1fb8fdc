package rnd

import (
	"math"
	"math/rand"
	"testing"

	"exadla/internal/blas"
	"exadla/internal/matgen"
)

func TestFHTOrthonormal(t *testing.T) {
	// The normalized transform preserves the 2-norm exactly (up to
	// rounding) and is an involution.
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 8, 64, 256} {
		buf := make([]float64, n)
		for i := range buf {
			buf[i] = rng.NormFloat64()
		}
		orig := append([]float64(nil), buf...)
		before := blas.Nrm2(n, buf, 1)
		fht(buf)
		after := blas.Nrm2(n, buf, 1)
		if math.Abs(before-after) > 1e-12*(1+before) {
			t.Fatalf("n=%d: norm %v → %v", n, before, after)
		}
		fht(buf)
		for i := range buf {
			if math.Abs(buf[i]-orig[i]) > 1e-12*(1+math.Abs(orig[i])) {
				t.Fatalf("n=%d: H·H ≠ I at %d", n, i)
			}
		}
	}
}

func TestFHTMatchesDefinition(t *testing.T) {
	// n=4 normalized Hadamard applied to e0 gives (1/2)·(1,1,1,1).
	buf := []float64{1, 0, 0, 0}
	fht(buf)
	for _, v := range buf {
		if math.Abs(v-0.5) > 1e-15 {
			t.Fatalf("fht(e0) = %v", buf)
		}
	}
}

func TestSRHTEmbedding(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m, n, s := 3000, 8, 96
	a := matgen.Dense[float64](rng, m, n)
	tr := NewSRHT(rng, s, m)
	sa := tr.ApplyMatrix(n, a, m)
	for trial := 0; trial < 10; trial++ {
		x := matgen.Dense[float64](rng, n, 1)
		ax := make([]float64, m)
		blas.Gemv(blas.NoTrans, m, n, 1, a, m, x, 1, 0, ax, 1)
		sax := make([]float64, s)
		blas.Gemv(blas.NoTrans, s, n, 1, sa, s, x, 1, 0, sax, 1)
		ratio := blas.Nrm2(s, sax, 1) / blas.Nrm2(m, ax, 1)
		if ratio < 0.4 || ratio > 1.6 {
			t.Fatalf("trial %d: SRHT embedding ratio %g", trial, ratio)
		}
	}
}

func TestSRHTVectorMatchesMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m, s := 100, 20
	tr := NewSRHT(rng, s, m)
	// A vector is sketched as the one-column matrix it is, and as the
	// first column of a wider one.
	b := matgen.Dense[float64](rng, m, 3)
	v := tr.ApplyMatrix(1, b, m)
	mOut := tr.ApplyMatrix(3, b, m)
	for i := range v {
		if v[i] != mOut[i] {
			t.Fatal("vector and matrix application disagree")
		}
	}
}
