package exadla_test

import (
	"math"
	"math/rand"
	"testing"

	"exadla"
)

func TestEigenSym(t *testing.T) {
	ctx := newCtx(t)
	rng := rand.New(rand.NewSource(40))
	n := 40
	a := exadla.RandomSPD(rng, n)
	vals, vecs, err := ctx.EigenSym(a)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != n {
		t.Fatalf("%d eigenvalues", len(vals))
	}
	// SPD ⇒ all positive and ascending.
	for i, v := range vals {
		if v <= 0 {
			t.Fatalf("λ[%d] = %v not positive", i, v)
		}
		if i > 0 && vals[i] < vals[i-1] {
			t.Fatal("eigenvalues not sorted")
		}
	}
	// Reconstruct A = V·diag(λ)·Vᵀ through the public API.
	vd := vecs.Clone()
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			vd.Set(i, j, vecs.At(i, j)*vals[j])
		}
	}
	vt := exadla.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			vt.Set(i, j, vecs.At(j, i))
		}
	}
	recon := multiply(t, ctx, vd, vt)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			if math.Abs(recon.At(i, j)-a.At(i, j)) > 1e-9*float64(n) {
				t.Fatalf("reconstruction differs at (%d,%d)", i, j)
			}
		}
	}
}

func TestEigenvaluesSymPrescribedCond(t *testing.T) {
	ctx := newCtx(t)
	rng := rand.New(rand.NewSource(41))
	n, cond := 30, 1e4
	a := exadla.RandomSPDWithCond(rng, n, cond)
	vals, err := ctx.EigenvaluesSym(a)
	if err != nil {
		t.Fatal(err)
	}
	got := vals[n-1] / vals[0]
	if math.Abs(got-cond)/cond > 1e-6 {
		t.Errorf("spectral condition %v want %v", got, cond)
	}
}

func TestSingularValues(t *testing.T) {
	ctx := newCtx(t)
	rng := rand.New(rand.NewSource(42))
	m, n, cond := 120, 25, 1e3
	a := exadla.RandomWithCond(rng, m, n, cond)
	sv, err := ctx.SingularValues(a)
	if err != nil {
		t.Fatal(err)
	}
	if len(sv) != n {
		t.Fatalf("%d singular values", len(sv))
	}
	// matgen promises log-spaced σ from 1 down to 1/cond.
	if math.Abs(sv[0]-1) > 1e-8 {
		t.Errorf("σmax = %v want 1", sv[0])
	}
	if math.Abs(sv[n-1]-1/cond)/(1/cond) > 1e-4 {
		t.Errorf("σmin = %v want %v", sv[n-1], 1/cond)
	}
	for i := 1; i < n; i++ {
		if sv[i] > sv[i-1] {
			t.Fatal("singular values not descending")
		}
	}
}

func TestEigenSymNonSquare(t *testing.T) {
	ctx := newCtx(t)
	if _, _, err := ctx.EigenSym(exadla.NewMatrix(3, 4)); err == nil {
		t.Error("expected dimension error")
	}
}
