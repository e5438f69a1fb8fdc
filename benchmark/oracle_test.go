package main

import (
	"math"
	"math/rand"
	"testing"

	"exadla"
)

// A wrong answer must count as a failure: the pass's failed count rises and
// ok_share falls below 1.
func TestWrongAnswerRaisesFailShare(t *testing.T) {
	k := *libKinds["chol_large"]
	k.rows, k.cols, k.tol = 96, 96, solveTol(96)
	def := workloadDef{name: "tiny_chol", tail: 0.5, limitMs: 1e6}
	w := &libWorkload{kind: &k, cfg: runConfig{seed: 7, count: 20}}
	if err := w.setUp(); err != nil {
		t.Fatal(err)
	}
	p, err := w.measure()
	if err != nil {
		t.Fatal(err)
	}
	if p.failed() != 0 {
		t.Fatalf("clean pass: %d of %d failed", p.failed(), p.attempted())
	}
	m, err := def.endToEndMetrics(p, 1)
	if err != nil || m["ok_share"] != 1 {
		t.Fatalf("clean pass: ok_share %v (%v)", m["ok_share"], err)
	}

	w.answers[3][5] += 1e-3 // a plausible-looking wrong digit
	w.answers[4] = nil      // an operation that returned an error
	w.verify(p)
	if p.failed() != 2 {
		t.Fatalf("after corrupting two answers: %d failed, want 2", p.failed())
	}
	m, err = def.endToEndMetrics(p, 1)
	if err != nil || m["ok_share"] != 0.9 {
		t.Fatalf("after corrupting two answers: ok_share %v (%v), want 0.9", m["ok_share"], err)
	}
}

func TestBackwardErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 40
	a := exadla.RandomSPD(rng, n).Data()
	x := exadla.RandomGeneral(rng, n, 1).Data()
	b := make([]float64, n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			b[i] += a[i+j*n] * x[j]
		}
	}
	normA := normInfMat(n, n, a)
	if be := solveBackwardError(n, a, x, b, normA); be > solveTol(n) {
		t.Errorf("exact solution scores %g", be)
	}
	bad := append([]float64(nil), x...)
	bad[0] *= 1.001
	if be := solveBackwardError(n, a, bad, b, normA); be <= solveTol(n) {
		t.Errorf("perturbed solution scores %g, inside the tolerance", be)
	}
	bad[0] = math.NaN()
	if be := solveBackwardError(n, a, bad, b, normA); !math.IsInf(be, 1) {
		t.Errorf("NaN solution scores %g, want +Inf", be)
	}
	if be := solveBackwardError(n, a, x[:n-1], b, normA); !math.IsInf(be, 1) {
		t.Errorf("short solution scores %g, want +Inf", be)
	}

	// Least squares: the residual of the exact solution of a consistent
	// system is zero, so Aᵀr is; moving x breaks that.
	const m = 60
	ta := exadla.RandomGeneral(rng, m, n).Data()
	tb := make([]float64, m)
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			tb[i] += ta[i+j*m] * x[j]
		}
	}
	fro := norm2(ta)
	if be := lsBackwardError(m, n, ta, x, tb, fro); be > solveTol(m) {
		t.Errorf("exact least-squares solution scores %g", be)
	}
	if be := lsBackwardError(m, n, ta, bad[1:], tb, fro); !math.IsInf(be, 1) {
		t.Errorf("short least-squares solution scores %g, want +Inf", be)
	}

	l := append([]float64(nil), a...)
	if !lowerBitwiseEqual(n, a, l) {
		t.Error("a matrix differs from its copy")
	}
	l[1] = math.Nextafter(l[1], 2) // below the diagonal, column 0
	if lowerBitwiseEqual(n, a, l) {
		t.Error("one ulp in the lower triangle went unnoticed")
	}
	l[1] = a[1]
	l[n] = -l[n] // above the diagonal: not part of the factor
	if !lowerBitwiseEqual(n, a, l) {
		t.Error("the strict upper triangle must not be compared")
	}
}
