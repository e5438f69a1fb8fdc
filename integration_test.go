package exadla_test

// Integration tests chaining multiple public-API operations the way a
// downstream application would, checking the pieces compose: factor → solve
// → refine, eigen → reconstruct → solve, invert → multiply, and the three
// least-squares paths against each other.

import (
	"math"
	"math/rand"
	"testing"

	"exadla"
)

func TestIntegrationSolvePaths(t *testing.T) {
	// The three square-solve paths (Cholesky, LU, mixed precision) must
	// agree with each other on an SPD system.
	ctx := newCtx(t, exadla.WithTileSize(32))
	rng := rand.New(rand.NewSource(70))
	n := 150
	a := exadla.RandomSPDWithCond(rng, n, 1e3)
	xTrue := exadla.RandomGeneral(rng, n, 1)
	b := multiply(t, ctx, a, xTrue)

	xChol, err := ctx.SolveSPD(a, b)
	if err != nil {
		t.Fatal(err)
	}
	xLU, err := ctx.Solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	xMixed, _, err := ctx.SolveMixed(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if math.Abs(xChol.At(i, 0)-xLU.At(i, 0)) > 1e-9 {
			t.Fatalf("Cholesky and LU disagree at %d", i)
		}
		if math.Abs(xChol.At(i, 0)-xMixed.At(i, 0)) > 1e-9 {
			t.Fatalf("Cholesky and mixed disagree at %d", i)
		}
	}
}

func TestIntegrationEigenSolveConsistency(t *testing.T) {
	// Solving A·x = b through the spectral decomposition must match the
	// direct solver: x = V·diag(1/λ)·Vᵀ·b.
	ctx := newCtx(t)
	rng := rand.New(rand.NewSource(71))
	n := 60
	a := exadla.RandomSPD(rng, n)
	b := exadla.RandomGeneral(rng, n, 1)

	vals, vecs, err := ctx.EigenSym(a)
	if err != nil {
		t.Fatal(err)
	}
	// vtb = Vᵀ·b, scale by 1/λ, multiply back.
	vt := exadla.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			vt.Set(i, j, vecs.At(j, i))
		}
	}
	vtb := multiply(t, ctx, vt, b)
	for i := 0; i < n; i++ {
		vtb.Set(i, 0, vtb.At(i, 0)/vals[i])
	}
	xSpectral := multiply(t, ctx, vecs, vtb)

	xDirect, err := ctx.SolveSPD(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if math.Abs(xSpectral.At(i, 0)-xDirect.At(i, 0)) > 1e-8*(1+math.Abs(xDirect.At(i, 0))) {
			t.Fatalf("spectral and direct solves disagree at %d: %v vs %v",
				i, xSpectral.At(i, 0), xDirect.At(i, 0))
		}
	}
}

func TestIntegrationInverseSolvesSystem(t *testing.T) {
	ctx := newCtx(t, exadla.WithTileSize(16))
	rng := rand.New(rand.NewSource(72))
	n := 70
	a := exadla.RandomSPD(rng, n)
	b := exadla.RandomGeneral(rng, n, 2)
	inv, err := ctx.InvertSPD(a)
	if err != nil {
		t.Fatal(err)
	}
	xViaInv := multiply(t, ctx, inv, b)
	xDirect, err := ctx.SolveSPD(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 2; j++ {
		for i := 0; i < n; i++ {
			if math.Abs(xViaInv.At(i, j)-xDirect.At(i, j)) > 1e-8*(1+math.Abs(xDirect.At(i, j))) {
				t.Fatalf("inverse-based and direct solves disagree at (%d,%d)", i, j)
			}
		}
	}
}

func TestIntegrationLeastSquaresPaths(t *testing.T) {
	// Tile QR (flat and tree), TSQR, and randomized LS must all land on the
	// same least-squares solution.
	ctx := newCtx(t, exadla.WithTileSize(32))
	rng := rand.New(rand.NewSource(73))
	m, n := 1000, 40
	a := exadla.RandomWithCond(rng, m, n, 1e3)
	// A noisy RHS so the residual is genuinely nonzero.
	b := exadla.RandomGeneral(rng, m, 1)

	xQR, err := ctx.LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	xTSQR, err := ctx.TSQRLeastSquares(a, b, 8)
	if err != nil {
		t.Fatal(err)
	}
	xRand, err := ctx.RandomizedLeastSquares(rng, a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		ref := xQR.At(i, 0)
		if math.Abs(xTSQR.At(i, 0)-ref) > 1e-8*(1+math.Abs(ref)) {
			t.Fatalf("TSQR disagrees with QR at %d", i)
		}
		if math.Abs(xRand.At(i, 0)-ref) > 1e-6*(1+math.Abs(ref)) {
			t.Fatalf("randomized disagrees with QR at %d: %v vs %v", i, xRand.At(i, 0), ref)
		}
	}
}

func TestIntegrationSingularValuesMatchCondEst(t *testing.T) {
	ctx := newCtx(t)
	rng := rand.New(rand.NewSource(74))
	m, n := 200, 30
	a := exadla.RandomWithCond(rng, m, n, 1e4)
	sv, err := ctx.SingularValues(a)
	if err != nil {
		t.Fatal(err)
	}
	exact := sv[0] / sv[n-1]
	est := ctx.CondEst(rng, a)
	if est < exact/10 || est > exact*10 {
		t.Errorf("CondEst %v vs spectral %v", est, exact)
	}
}

func TestIntegrationFactorAcrossContexts(t *testing.T) {
	// A factor created on one Context must be reusable after other work has
	// run on the same Context (scheduler state does not leak across ops).
	ctx := newCtx(t, exadla.WithTileSize(16))
	rng := rand.New(rand.NewSource(75))
	n := 50
	a := exadla.RandomSPD(rng, n)
	f, err := ctx.Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	// Interleave unrelated work.
	g := exadla.RandomGeneral(rng, 40, 40)
	if _, err := ctx.Solve(g, exadla.RandomGeneral(rng, 40, 1)); err != nil {
		t.Fatal(err)
	}
	// The old factor still solves correctly.
	b := multiply(t, ctx, a, exadla.RandomGeneral(rng, n, 1))
	x, err := f.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	if r := exadla.Residual(a, x, b); r > 1e-12 {
		t.Errorf("stale-factor residual %g", r)
	}
}
