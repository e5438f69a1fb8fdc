package rnd_test

import (
	"math"
	"math/rand"
	"testing"

	"exadla/internal/blas"
	"exadla/internal/lapack"
	"exadla/internal/matgen"
	"exadla/internal/rnd"
)

func lsResidual(m, n int, a []float64, b, x []float64) float64 {
	r := append([]float64(nil), b...)
	blas.Gemv(blas.NoTrans, m, n, -1, a, m, x, 1, 1, r, 1)
	return blas.Nrm2(m, r, 1)
}

func TestLSQRConsistentSystem(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m, n := 200, 30
	a := matgen.Dense[float64](rng, m, n)
	xTrue := matgen.Dense[float64](rng, n, 1)
	b := make([]float64, m)
	blas.Gemv(blas.NoTrans, m, n, 1, a, m, xTrue, 1, 0, b, 1)
	res := rnd.LSQR(&rnd.DenseOp{M: m, N: n, A: a, LDA: m}, b, 1e-13, 500)
	if !res.Converged {
		t.Error("LSQR did not converge")
	}
	for i := range res.X {
		if math.Abs(res.X[i]-xTrue[i]) > 1e-8 {
			t.Fatalf("x[%d] = %v want %v", i, res.X[i], xTrue[i])
		}
	}
}

func TestLSQRMatchesQRSolution(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m, n := 150, 20
	a := matgen.Dense[float64](rng, m, n)
	b := matgen.Dense[float64](rng, m, 1)
	res := rnd.LSQR(&rnd.DenseOp{M: m, N: n, A: a, LDA: m}, b, 1e-13, 1000)
	aCopy := append([]float64(nil), a...)
	bCopy := append([]float64(nil), b...)
	if err := lapack.Gels(m, n, aCopy, m, bCopy); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if math.Abs(res.X[i]-bCopy[i]) > 1e-7*(1+math.Abs(bCopy[i])) {
			t.Fatalf("x[%d] = %v, QR %v", i, res.X[i], bCopy[i])
		}
	}
}

func TestLSQRZeroRHS(t *testing.T) {
	a := matgen.Identity[float64](5)
	b := make([]float64, 5)
	res := rnd.LSQR(&rnd.DenseOp{M: 5, N: 5, A: a, LDA: 5}, b, 1e-12, 10)
	if !res.Converged {
		t.Error("zero RHS should converge immediately")
	}
	for _, v := range res.X {
		if v != 0 {
			t.Error("nonzero solution for zero RHS")
		}
	}
}

func TestSolveLSMatchesQR(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m, n := 400, 25
	a := matgen.WithCond[float64](rng, m, n, 1e6) // ill-conditioned on purpose
	b := matgen.Dense[float64](rng, m, 1)
	x, stats, err := rnd.SolveLS(rng, m, n, a, m, b)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Converged {
		t.Error("preconditioned LSQR did not converge")
	}
	aCopy := append([]float64(nil), a...)
	bCopy := append([]float64(nil), b...)
	if err := lapack.Gels(m, n, aCopy, m, bCopy); err != nil {
		t.Fatal(err)
	}
	rRand := lsResidual(m, n, a, b, x)
	rQR := lsResidual(m, n, a, b, bCopy[:n])
	if rRand > rQR*(1+1e-6) {
		t.Errorf("randomized residual %g exceeds QR residual %g", rRand, rQR)
	}
}

func TestSolveLSTallMatchesQR(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m, n := 2000, 15
	a := matgen.WithCond[float64](rng, m, n, 1e5)
	b := matgen.Dense[float64](rng, m, 1)
	x, stats, err := rnd.SolveLS(rng, m, n, a, m, b)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Converged {
		t.Fatalf("not converged after %d iterations", stats.LSQRIterations)
	}
	aCopy := append([]float64(nil), a...)
	bCopy := append([]float64(nil), b...)
	if err := lapack.Gels(m, n, aCopy, m, bCopy); err != nil {
		t.Fatal(err)
	}
	rRand := lsResidual(m, n, a, b, x)
	rQR := lsResidual(m, n, a, b, bCopy[:n])
	if rRand > rQR*(1+1e-6) {
		t.Errorf("SRHT residual %g exceeds QR residual %g", rRand, rQR)
	}
}

func TestSolveLSIterationCountIsSmall(t *testing.T) {
	// The headline property of sketch-to-precondition: iteration count is
	// essentially independent of conditioning.
	rng := rand.New(rand.NewSource(4))
	m, n := 500, 20
	var iters []int
	for _, cond := range []float64{1e1, 1e8} {
		a := matgen.WithCond[float64](rng, m, n, cond)
		b := matgen.Dense[float64](rng, m, 1)
		_, stats, err := rnd.SolveLS(rng, m, n, a, m, b)
		if err != nil {
			t.Fatal(err)
		}
		if !stats.Converged {
			t.Fatalf("cond=%g: not converged", cond)
		}
		iters = append(iters, stats.LSQRIterations)
	}
	if iters[1] > 5*iters[0]+20 {
		t.Errorf("iterations blew up with conditioning: %v", iters)
	}
}

func TestSketchAndSolveRoughAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m, n := 600, 15
	a := matgen.Dense[float64](rng, m, n)
	xTrue := matgen.Dense[float64](rng, n, 1)
	b := make([]float64, m)
	blas.Gemv(blas.NoTrans, m, n, 1, a, m, xTrue, 1, 0, b, 1)
	// Add noise so the LS problem has a nonzero residual.
	for i := range b {
		b[i] += 0.01 * rng.NormFloat64()
	}
	// Sketch-and-solve: the exact solution of min‖S(A·x − b)‖ for an SRHT
	// S of 4n rows.
	s := 4 * n
	sk := rnd.NewSRHT(rng, s, m)
	sa := sk.ApplyMatrix(n, a, m)
	x := sk.ApplyMatrix(1, b, m)
	if err := lapack.Gels(s, n, sa, s, x); err != nil {
		t.Fatal(err)
	}
	x = x[:n]
	// It must land in the right neighbourhood (its residual within a
	// modest factor of optimal).
	aCopy := append([]float64(nil), a...)
	bCopy := append([]float64(nil), b...)
	if err := lapack.Gels(m, n, aCopy, m, bCopy); err != nil {
		t.Fatal(err)
	}
	rSketch := lsResidual(m, n, a, b, x)
	rOpt := lsResidual(m, n, a, b, bCopy[:n])
	if rSketch > 2*rOpt {
		t.Errorf("sketch-and-solve residual %g ≫ optimal %g", rSketch, rOpt)
	}
}

func TestCondEst2(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, cond := range []float64{1, 100, 1e5} {
		m, n := 200, 40
		a := matgen.WithCond[float64](rng, m, n, cond)
		est := rnd.CondEst2(rng, m, n, a, m, 50)
		if est < cond/10 || est > cond*10 {
			t.Errorf("cond %g estimated as %g", cond, est)
		}
	}
}

func TestCondEst2Singular(t *testing.T) {
	m, n := 20, 5
	a := make([]float64, m*n)
	rng := rand.New(rand.NewSource(7))
	if est := rnd.CondEst2(rng, m, n, a, m, 10); !math.IsInf(est, 1) {
		t.Errorf("singular matrix estimated cond %g, want +Inf", est)
	}
}
