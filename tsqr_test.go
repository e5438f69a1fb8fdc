package exadla_test

import (
	"math"
	"math/rand"
	"testing"

	"exadla"
	"exadla/internal/lapack"
)

// The least-squares entry points on the tile QR: TSQRLeastSquares is tree
// Gels on one tile column, LeastSquares flat Gels at the tuned tile size.

func TestTSQRLeastSquaresMatchesGels(t *testing.T) {
	ctx := newCtx(t, exadla.WithWorkers(4))
	rng := rand.New(rand.NewSource(4))
	m, n := 600, 15
	a := exadla.RandomGeneral(rng, m, n)
	b := exadla.RandomGeneral(rng, m, 1)
	x, err := ctx.TSQRLeastSquares(a, b, 8)
	if err != nil {
		t.Fatal(err)
	}
	aCopy := append([]float64(nil), a.Data()...)
	bCopy := append([]float64(nil), b.Data()...)
	if err := lapack.Gels(m, n, aCopy, m, bCopy); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if math.Abs(x.At(i, 0)-bCopy[i]) > 1e-9*(1+math.Abs(bCopy[i])) {
			t.Fatalf("x[%d] = %v, Gels %v", i, x.At(i, 0), bCopy[i])
		}
	}
}

func TestTSQRExactSystem(t *testing.T) {
	ctx := newCtx(t, exadla.WithWorkers(2))
	rng := rand.New(rand.NewSource(5))
	m, n := 256, 16
	a := exadla.RandomGeneral(rng, m, n)
	xTrue := exadla.RandomGeneral(rng, n, 1)
	b := multiply(t, ctx, a, xTrue)
	x, err := ctx.TSQRLeastSquares(a, b, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if math.Abs(x.At(i, 0)-xTrue.At(i, 0)) > 1e-9 {
			t.Fatalf("x[%d] = %v want %v", i, x.At(i, 0), xTrue.At(i, 0))
		}
	}
}

func TestTSQRRankDeficient(t *testing.T) {
	ctx := newCtx(t, exadla.WithWorkers(1))
	m, n := 50, 4
	a := exadla.NewMatrix(m, n) // zero columns → rank deficient
	b := exadla.NewMatrix(m, 1)
	if _, err := ctx.TSQRLeastSquares(a, b, 2); err == nil {
		t.Error("expected rank-deficiency error")
	}
}

func TestTSQRBlockCountClamped(t *testing.T) {
	// More blocks than m/n are clamped to tiles of n rows, not a panic.
	ctx := newCtx(t, exadla.WithWorkers(2))
	rng := rand.New(rand.NewSource(6))
	m, n := 40, 10
	a := exadla.RandomGeneral(rng, m, n)
	b := exadla.RandomGeneral(rng, m, 1)
	x, err := ctx.TSQRLeastSquares(a, b, 1000)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ctx.LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if math.Abs(x.At(i, 0)-want.At(i, 0)) > 1e-10*(1+math.Abs(want.At(i, 0))) {
			t.Fatalf("x[%d] = %v, flat tile QR %v", i, x.At(i, 0), want.At(i, 0))
		}
	}
}

func TestLeastSquaresZeroColumnIsAnError(t *testing.T) {
	// A zero column makes R's diagonal exactly zero; both least-squares
	// paths must say so rather than return an infinite solution.
	ctx := newCtx(t, exadla.WithWorkers(2))
	rng := rand.New(rand.NewSource(9))
	m, n := 300, 20
	for _, zero := range []int{0, 7, n - 1} {
		a := exadla.RandomGeneral(rng, m, n)
		for i := 0; i < m; i++ {
			a.Set(i, zero, 0)
		}
		b := exadla.RandomGeneral(rng, m, 1)
		if x, err := ctx.LeastSquares(a, b); err == nil {
			t.Errorf("column %d zero: LeastSquares returned x[%d] = %v and no error", zero, zero, x.At(zero, 0))
		}
		if _, err := ctx.TSQRLeastSquares(a, b, 4); err == nil {
			t.Errorf("column %d zero: TSQRLeastSquares returned no error", zero)
		}
	}
}
