package mixed_test

import (
	"math/rand"
	"testing"

	"exadla/internal/blas"
	"exadla/internal/core"
	"exadla/internal/matgen"
)

func TestSolveLUHalfWellConditioned(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{10, 100, 250} {
		a := matgen.WithCond[float64](rng, n, n, 10)
		xTrue := matgen.Dense[float64](rng, n, 1)
		b := make([]float64, n)
		blas.Gemv(blas.NoTrans, n, n, 1, a, n, xTrue, 1, 0, b, 1)
		x := make([]float64, n)
		res, err := solve(core.OpLU, true, n, a, b, x)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !res.Converged {
			t.Errorf("n=%d: half-precision refinement did not converge (%+v)", n, res)
		}
		if fe := forwardError(x, xTrue); fe > 1e-9*float64(n) {
			t.Errorf("n=%d: forward error %g", n, fe)
		}
	}
}

func TestSolveLUHalfNeedsMoreSweepsThanSingle(t *testing.T) {
	// ε₁₆ ≫ ε₃₂, so the fp16 contraction is slower: more sweeps at equal
	// conditioning.
	rng := rand.New(rand.NewSource(2))
	n := 150
	a := matgen.WithCond[float64](rng, n, n, 50)
	xTrue := matgen.Dense[float64](rng, n, 1)
	b := make([]float64, n)
	blas.Gemv(blas.NoTrans, n, n, 1, a, n, xTrue, 1, 0, b, 1)

	x := make([]float64, n)
	resHalf, err := solve(core.OpLU, true, n, a, b, x)
	if err != nil {
		t.Fatal(err)
	}
	resSingle, err := solve(core.OpLU, false, n, a, b, x)
	if err != nil {
		t.Fatal(err)
	}
	if !resHalf.Converged || !resSingle.Converged {
		t.Fatalf("convergence: half=%+v single=%+v", resHalf, resSingle)
	}
	if resHalf.Iterations <= resSingle.Iterations {
		t.Errorf("half sweeps (%d) not more than single sweeps (%d)",
			resHalf.Iterations, resSingle.Iterations)
	}
}

func TestSolveLUHalfFallsBackWhenTooIllConditioned(t *testing.T) {
	// cond ≫ 1/ε₁₆ ≈ 10³: fp16 factors cannot contract; the answer must
	// still come out right via fallback.
	rng := rand.New(rand.NewSource(3))
	n := 100
	a := matgen.WithCond[float64](rng, n, n, 1e7)
	xTrue := matgen.Dense[float64](rng, n, 1)
	b := make([]float64, n)
	blas.Gemv(blas.NoTrans, n, n, 1, a, n, xTrue, 1, 0, b, 1)
	x := make([]float64, n)
	res, err := solve(core.OpLU, true, n, a, b, x)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged && !res.FellBack {
		t.Error("neither converged nor fell back")
	}
	if fe := forwardError(x, xTrue); fe > 1e-6 {
		t.Errorf("forward error %g", fe)
	}
}

func TestSolveLUHalfScalingHandlesLargeEntries(t *testing.T) {
	// Entries far outside fp16 range must be handled by the pre-scaling,
	// not overflow to Inf.
	rng := rand.New(rand.NewSource(4))
	n := 60
	a := matgen.WithCond[float64](rng, n, n, 10)
	for i := range a {
		a[i] *= 1e8 // way beyond fp16 max of 65504
	}
	xTrue := matgen.Dense[float64](rng, n, 1)
	b := make([]float64, n)
	blas.Gemv(blas.NoTrans, n, n, 1, a, n, xTrue, 1, 0, b, 1)
	x := make([]float64, n)
	res, err := solve(core.OpLU, true, n, a, b, x)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Errorf("scaled solve did not converge: %+v", res)
	}
	if fe := forwardError(x, xTrue); fe > 1e-8*float64(n) {
		t.Errorf("forward error %g", fe)
	}
}
