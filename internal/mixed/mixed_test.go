package mixed_test

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"exadla/internal/blas"
	"exadla/internal/core"
	"exadla/internal/lapack"
	"exadla/internal/matgen"
	"exadla/internal/mixed"
	"exadla/internal/sched"
)

// testNB splits the larger test matrices into several tiles.
const testNB = 48

// solve runs mixed.Solve with op — at fp16 with fp16 set, float32
// otherwise — on the n×n A (lda n) and b, on two workers at tile size
// testNB.
func solve(op string, fp16 bool, n int, a, b, x []float64) (mixed.Result, error) {
	rt := sched.New(2)
	defer rt.Shutdown()
	return mixed.Solve(rt, testNB, op, fp16, n, a, n, b, x)
}

// forwardError returns ‖x − xTrue‖∞ / ‖xTrue‖∞.
func forwardError(x, xTrue []float64) float64 {
	var d, n float64
	for i := range x {
		if v := math.Abs(x[i] - xTrue[i]); v > d {
			d = v
		}
		if v := math.Abs(xTrue[i]); v > n {
			n = v
		}
	}
	return d / n
}

func TestSolveLUWellConditioned(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 10, 100, 300} {
		a := matgen.WithCond[float64](rng, n, n, 100)
		xTrue := matgen.Dense[float64](rng, n, 1)
		b := make([]float64, n)
		blas.Gemv(blas.NoTrans, n, n, 1, a, n, xTrue, 1, 0, b, 1)
		x := make([]float64, n)
		res, err := solve(core.OpLU, false, n, a, b, x)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !res.Converged {
			t.Errorf("n=%d: did not converge (fellback=%v)", n, res.FellBack)
		}
		if res.FellBack {
			t.Errorf("n=%d: unnecessary fallback", n)
		}
		// Mixed precision must deliver (near) double precision accuracy.
		if fe := forwardError(x, xTrue); fe > 1e-9*float64(n) {
			t.Errorf("n=%d: forward error %g", n, fe)
		}
	}
}

func TestSolveLUAccuracyBeatsPureSingle(t *testing.T) {
	// The whole point: refined mixed precision is far more accurate than a
	// pure float32 solve.
	rng := rand.New(rand.NewSource(2))
	n := 200
	a := matgen.WithCond[float64](rng, n, n, 1e4)
	xTrue := matgen.Dense[float64](rng, n, 1)
	b := make([]float64, n)
	blas.Gemv(blas.NoTrans, n, n, 1, a, n, xTrue, 1, 0, b, 1)

	x := make([]float64, n)
	if _, err := solve(core.OpLU, false, n, a, b, x); err != nil {
		t.Fatal(err)
	}
	feMixed := forwardError(x, xTrue)

	// Pure float32 solve.
	a32 := make([]float32, n*n)
	b32 := make([]float32, n)
	for i := range a32 {
		a32[i] = float32(a[i])
	}
	for i := range b32 {
		b32[i] = float32(b[i])
	}
	ipiv := make([]int, n)
	if err := lapack.Gesv(n, 1, a32, n, ipiv, b32, n); err != nil {
		t.Fatal(err)
	}
	x32 := make([]float64, n)
	for i := range b32 {
		x32[i] = float64(b32[i])
	}
	feSingle := forwardError(x32, xTrue)
	if feMixed > feSingle/100 {
		t.Errorf("mixed error %g not ≪ single error %g", feMixed, feSingle)
	}
}

func TestSolveLUIllConditionedFallsBack(t *testing.T) {
	// cond ≈ 1/ε₃₂ ⇒ the float32 factors stop being a contraction and the
	// solver must fall back to float64 — and still produce a good answer.
	rng := rand.New(rand.NewSource(3))
	n := 100
	a := matgen.WithCond[float64](rng, n, n, 1e9)
	xTrue := matgen.Dense[float64](rng, n, 1)
	b := make([]float64, n)
	blas.Gemv(blas.NoTrans, n, n, 1, a, n, xTrue, 1, 0, b, 1)
	x := make([]float64, n)
	res, err := solve(core.OpLU, false, n, a, b, x)
	if err != nil {
		t.Fatal(err)
	}
	if !res.FellBack && !res.Converged {
		t.Error("neither converged nor fell back")
	}
	// Whatever path was taken, the answer must be double-precision good
	// relative to the conditioning (κ·ε ≈ 1e9·1e-16 = 1e-7 forward error).
	if fe := forwardError(x, xTrue); fe > 1e-4 {
		t.Errorf("forward error %g", fe)
	}
}

func TestSolveLUSingular(t *testing.T) {
	n := 5
	a := make([]float64, n*n) // zero matrix
	b := make([]float64, n)
	x := make([]float64, n)
	if _, err := solve(core.OpLU, false, n, a, b, x); !errors.Is(err, mixed.ErrSingular) {
		t.Errorf("singular matrix: got error %v, want mixed.ErrSingular", err)
	}
}

func TestSolveCholesky(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{1, 20, 150} {
		a := matgen.SPDWithCond[float64](rng, n, 1e3)
		xTrue := matgen.Dense[float64](rng, n, 1)
		b := make([]float64, n)
		blas.Symv(blas.Lower, n, 1, a, n, xTrue, 1, 0, b, 1)
		x := make([]float64, n)
		res, err := mixed.SolveCholesky(n, a, n, b, x)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !res.Converged && !res.FellBack {
			t.Errorf("n=%d: no convergence signal", n)
		}
		if fe := forwardError(x, xTrue); fe > 1e-8*float64(n+1) {
			t.Errorf("n=%d: forward error %g", n, fe)
		}
	}
}

func TestSolveCholeskyNotPDFallsBackToError(t *testing.T) {
	n := 4
	a := matgen.Identity[float64](n)
	a[2+2*n] = -5 // indefinite
	b := []float64{1, 1, 1, 1}
	x := make([]float64, n)
	_, err := mixed.SolveCholesky(n, a, n, b, x)
	if err == nil {
		t.Error("expected error for indefinite matrix")
	}
	var npd *lapack.NotPositiveDefiniteError
	if !errors.As(err, &npd) {
		t.Errorf("indefinite matrix: got error %v, want *lapack.NotPositiveDefiniteError", err)
	}
}

func TestIterationCountGrowsWithCondition(t *testing.T) {
	// More ill-conditioned ⇒ slower contraction ⇒ more refinement sweeps.
	rng := rand.New(rand.NewSource(5))
	n := 150
	iters := make([]int, 0, 3)
	for _, cond := range []float64{1e1, 1e4, 1e6} {
		a := matgen.WithCond[float64](rng, n, n, cond)
		xTrue := matgen.Dense[float64](rng, n, 1)
		b := make([]float64, n)
		blas.Gemv(blas.NoTrans, n, n, 1, a, n, xTrue, 1, 0, b, 1)
		x := make([]float64, n)
		res, err := solve(core.OpLU, false, n, a, b, x)
		if err != nil {
			t.Fatal(err)
		}
		iters = append(iters, res.Iterations)
	}
	if iters[2] < iters[0] {
		t.Errorf("iterations did not grow with condition number: %v", iters)
	}
}

func TestInputsNotClobbered(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := 40
	general := matgen.WithCond[float64](rng, n, n, 10)
	b := matgen.Dense[float64](rng, n, 1)
	spd := matgen.SPDWithCond[float64](rng, n, 10)
	x := make([]float64, n)
	for _, rung := range []struct {
		op   string
		fp16 bool
		a    []float64
	}{{core.OpLU, false, general}, {core.OpLU, true, general}, {core.OpCholesky, false, spd}} {
		a := rung.a
		aCopy := append([]float64(nil), a...)
		bCopy := append([]float64(nil), b...)
		if _, err := solve(rung.op, rung.fp16, n, a, b, x); err != nil {
			t.Fatal(err)
		}
		for i := range a {
			if a[i] != aCopy[i] {
				t.Fatalf("%s fp16=%v: A was modified", rung.op, rung.fp16)
			}
		}
		for i := range b {
			if b[i] != bCopy[i] {
				t.Fatalf("%s fp16=%v: b was modified", rung.op, rung.fp16)
			}
		}
	}
}
