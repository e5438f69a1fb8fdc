package exadla_test

import (
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"testing"

	"exadla"
	"exadla/internal/autotune"
	"exadla/internal/blas"
)

func newCtx(t *testing.T, opts ...exadla.Option) *exadla.Context {
	t.Helper()
	ctx := exadla.NewContext(opts...)
	t.Cleanup(ctx.Close)
	return ctx
}

// multiply is ctx.Multiply, failing t on its error.
func multiply(t *testing.T, ctx *exadla.Context, a, b *exadla.Matrix) *exadla.Matrix {
	t.Helper()
	c, err := ctx.Multiply(a, b)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSolveSPD(t *testing.T) {
	ctx := newCtx(t, exadla.WithWorkers(4), exadla.WithTileSize(32))
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 17, 64, 200} {
		a := exadla.RandomSPD(rng, n)
		xTrue := exadla.RandomGeneral(rng, n, 2)
		b := multiply(t, ctx, a, xTrue)
		x, err := ctx.SolveSPD(a, b)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if r := exadla.Residual(a, x, b); r > 1e-12 {
			t.Errorf("n=%d: residual %g", n, r)
		}
	}
}

// TestContextHeapFlatAcrossSolves pins that a long-lived Context does not
// keep finished tasks alive with their bodies: the closures capture the
// solve's tiles, so a runtime that retained them would grow by about one
// operator per solve.
func TestContextHeapFlatAcrossSolves(t *testing.T) {
	const n, solves = 512, 16
	ctx := newCtx(t, exadla.WithWorkers(2))
	rng := rand.New(rand.NewSource(3))
	a := exadla.RandomSPD(rng, n)
	b := exadla.RandomGeneral(rng, n, 1)
	solve := func() {
		if _, err := ctx.SolveSPD(a, b); err != nil {
			t.Fatal(err)
		}
	}
	liveHeap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	solve() // warm the worker pool, slabs and kernel buffers
	before := liveHeap()
	for i := 0; i < solves; i++ {
		solve()
	}
	grown := liveHeap() - before
	if operator := int64(n * n * 8); grown >= operator {
		t.Errorf("post-GC heap grew %.1f MB over %d solves, want < one operator (%.1f MB)",
			float64(grown)/1e6, solves, float64(operator)/1e6)
	}
}

func TestSolveSPDNotPD(t *testing.T) {
	ctx := newCtx(t)
	a := exadla.Identity(5)
	a.Set(3, 3, -1)
	b := exadla.NewMatrix(5, 1)
	if _, err := ctx.SolveSPD(a, b); err == nil {
		t.Error("expected error for indefinite matrix")
	}
}

// TestSolveSPDNaN: a NaN in the operator fails SolveSPD at the pivot it
// reaches, on the diagonal or off it, instead of returning a NaN solution.
func TestSolveSPDNaN(t *testing.T) {
	const n = 100
	ctx := newCtx(t, exadla.WithTileSize(32))
	rng := rand.New(rand.NewSource(37))
	for _, at := range [][2]int{{40, 40}, {70, 5}} {
		a := exadla.RandomSPD(rng, n)
		a.Set(at[0], at[1], math.NaN())
		a.Set(at[1], at[0], math.NaN())
		_, err := ctx.SolveSPD(a, exadla.RandomGeneral(rng, n, 1))
		if got := pivotIndex(err); got != at[0] {
			t.Errorf("NaN at %v: got %v (pivot %d), want a NotPositiveDefiniteError at %d", at, err, got, at[0])
		}
	}
}

func TestCholeskyFactorReuse(t *testing.T) {
	ctx := newCtx(t, exadla.WithTileSize(16))
	rng := rand.New(rand.NewSource(2))
	n := 50
	a := exadla.RandomSPD(rng, n)
	f, err := ctx.Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 3; trial++ {
		xTrue := exadla.RandomGeneral(rng, n, 1)
		b := multiply(t, ctx, a, xTrue)
		x, err := f.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		if r := exadla.Residual(a, x, b); r > 1e-12 {
			t.Errorf("trial %d: residual %g", trial, r)
		}
	}
	// L·Lᵀ must reproduce A.
	l := f.L()
	lt := exadla.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			lt.Set(i, j, l.At(j, i))
		}
	}
	recon := multiply(t, ctx, l, lt)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if math.Abs(recon.At(i, j)-a.At(i, j)) > 1e-10*float64(n) {
				t.Fatalf("L·Lᵀ differs from A at (%d,%d)", i, j)
			}
		}
	}
}

func TestSolveGeneral(t *testing.T) {
	ctx := newCtx(t, exadla.WithTileSize(24))
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 30, 100} {
		a := exadla.RandomGeneral(rng, n, n)
		xTrue := exadla.RandomGeneral(rng, n, 1)
		b := multiply(t, ctx, a, xTrue)
		x, err := ctx.Solve(a, b)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if r := exadla.Residual(a, x, b); r > 1e-10 {
			t.Errorf("n=%d: residual %g", n, r)
		}
	}
}

func TestLUFactorReuse(t *testing.T) {
	ctx := newCtx(t, exadla.WithTileSize(16))
	rng := rand.New(rand.NewSource(4))
	n := 60
	a := exadla.RandomGeneral(rng, n, n)
	f, err := ctx.LU(a)
	if err != nil {
		t.Fatal(err)
	}
	xTrue := exadla.RandomGeneral(rng, n, 3)
	b := multiply(t, ctx, a, xTrue)
	x, err := f.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	if r := exadla.Residual(a, x, b); r > 1e-10 {
		t.Errorf("residual %g", r)
	}
}

func TestLeastSquares(t *testing.T) {
	ctx := newCtx(t, exadla.WithTileSize(16))
	rng := rand.New(rand.NewSource(5))
	m, n := 120, 40
	a := exadla.RandomGeneral(rng, m, n)
	xTrue := exadla.RandomGeneral(rng, n, 1)
	b := multiply(t, ctx, a, xTrue)
	x, err := ctx.LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	rows, cols := x.Dims()
	if rows != n || cols != 1 {
		t.Fatalf("solution dims %d×%d", rows, cols)
	}
	for i := 0; i < n; i++ {
		if math.Abs(x.At(i, 0)-xTrue.At(i, 0)) > 1e-9 {
			t.Fatalf("x[%d] = %v want %v", i, x.At(i, 0), xTrue.At(i, 0))
		}
	}
}

func TestQRFactorPieces(t *testing.T) {
	ctx := newCtx(t, exadla.WithTileSize(16))
	rng := rand.New(rand.NewSource(6))
	m, n := 48, 32
	a := exadla.RandomGeneral(rng, m, n)
	f, err := ctx.QR(a)
	if err != nil {
		t.Fatal(err)
	}
	// Qᵀ·A must equal [R; 0].
	qta, err := f.QTb(a)
	if err != nil {
		t.Fatal(err)
	}
	r := f.R()
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			want := 0.0
			if i <= j {
				want = r.At(i, j)
			}
			if math.Abs(qta.At(i, j)-want) > 1e-10*float64(m) {
				t.Fatalf("QᵀA differs from R at (%d,%d)", i, j)
			}
		}
	}
}

func TestSolveMixed(t *testing.T) {
	ctx := newCtx(t)
	rng := rand.New(rand.NewSource(7))
	n := 120
	a := exadla.RandomWithCond(rng, n, n, 100)
	xTrue := exadla.RandomGeneral(rng, n, 1)
	b := multiply(t, ctx, a, xTrue)
	x, res, err := ctx.SolveMixed(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Errorf("not converged: %+v", res)
	}
	if r := exadla.Residual(a, x, b); r > 1e-12 {
		t.Errorf("residual %g", r)
	}
}

func TestSolveMixedSPD(t *testing.T) {
	ctx := newCtx(t)
	rng := rand.New(rand.NewSource(8))
	n := 80
	a := exadla.RandomSPDWithCond(rng, n, 50)
	xTrue := exadla.RandomGeneral(rng, n, 1)
	b := multiply(t, ctx, a, xTrue)
	x, res, err := ctx.SolveMixedSPD(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged && !res.FellBack {
		t.Errorf("no outcome: %+v", res)
	}
	if r := exadla.Residual(a, x, b); r > 1e-11 {
		t.Errorf("residual %g", r)
	}
}

// TestSolveMixedHonoursContext pins that the three mixed-precision entry
// points run on the Context: the answer and the report are bitwise the
// same on one worker and on two, a non-default tile size still converges,
// and a traced Context records the call's factorization tasks.
func TestSolveMixedHonoursContext(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	n := 200
	general := exadla.RandomWithCond(rng, n, n, 50)
	spd := exadla.RandomSPDWithCond(rng, n, 50)
	b := exadla.RandomGeneral(rng, n, 1)
	type solver func(*exadla.Context, *exadla.Matrix, *exadla.Matrix) (*exadla.Matrix, exadla.MixedResult, error)
	for _, tc := range []struct {
		name, panel string
		a           *exadla.Matrix
		solve       solver
	}{
		{"SolveMixed", "getrf", general, (*exadla.Context).SolveMixed},
		{"SolveMixedSPD", "potrf", spd, (*exadla.Context).SolveMixedSPD},
		{"SolveMixedHalf", "getrf", general, (*exadla.Context).SolveMixedHalf},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(opts ...exadla.Option) (*exadla.Context, *exadla.Matrix, exadla.MixedResult) {
				ctx := newCtx(t, opts...)
				x, res, err := tc.solve(ctx, tc.a, b)
				if err != nil {
					t.Fatal(err)
				}
				return ctx, x, res
			}
			_, x1, res1 := run(exadla.WithWorkers(1))
			_, x2, res2 := run(exadla.WithWorkers(2))
			if res1 != res2 {
				t.Errorf("report on 1 worker %+v, on 2 workers %+v", res1, res2)
			}
			for i := range n {
				if math.Float64bits(x1.At(i, 0)) != math.Float64bits(x2.At(i, 0)) {
					t.Fatalf("x[%d] = %v on 1 worker, %v on 2 workers", i, x1.At(i, 0), x2.At(i, 0))
				}
			}

			_, x, res := run(exadla.WithTileSize(48))
			if !res.Converged {
				t.Errorf("tile size 48: not converged: %+v", res)
			}
			if r := exadla.Residual(tc.a, x, b); r > 1e-12 {
				t.Errorf("tile size 48: residual %g", r)
			}

			ctx, _, _ := run(exadla.WithTracing())
			if st := ctx.TraceStats(); st.Tasks == 0 || st.ByKernel[tc.panel] == 0 {
				t.Errorf("traced call recorded %d tasks, %s kernels %v s", st.Tasks, tc.panel, st.ByKernel[tc.panel])
			}
		})
	}
}

// TestSolveMixedSPDReadsLowerTriangle pins SolveMixedSPD's contract that
// only A's lower triangle is referenced: with NaN in the strict upper
// triangle, x and the report are bitwise those of the clean symmetric A,
// both when the float32 refinement converges and when it falls back to
// float64 (κ = 1e12).
func TestSolveMixedSPDReadsLowerTriangle(t *testing.T) {
	const n = 200
	ctx := newCtx(t, exadla.WithWorkers(2), exadla.WithTileSize(48))
	rng := rand.New(rand.NewSource(22))
	b := exadla.RandomGeneral(rng, n, 1)
	for _, tc := range []struct {
		cond     float64
		fellBack bool
	}{{50, false}, {1e12, true}} {
		a := exadla.RandomSPDWithCond(rng, n, tc.cond)
		dirty := a.Clone()
		for j := range n {
			for i := range j {
				dirty.Set(i, j, math.NaN())
			}
		}
		x, res, err := ctx.SolveMixedSPD(a, b)
		if err != nil {
			t.Fatalf("cond %g: %v", tc.cond, err)
		}
		if res.FellBack != tc.fellBack || res.Converged == tc.fellBack {
			t.Fatalf("cond %g: report %+v, want fell back %v", tc.cond, res, tc.fellBack)
		}
		xd, resd, err := ctx.SolveMixedSPD(dirty, b)
		if err != nil {
			t.Fatalf("cond %g, NaN upper triangle: %v", tc.cond, err)
		}
		if res != resd {
			t.Errorf("cond %g: report %+v, with NaN upper triangle %+v", tc.cond, res, resd)
		}
		for i := range n {
			if math.Float64bits(x.At(i, 0)) != math.Float64bits(xd.At(i, 0)) {
				t.Fatalf("cond %g: x[%d] = %v, with NaN upper triangle %v", tc.cond, i, x.At(i, 0), xd.At(i, 0))
			}
		}
	}
}

// TestSolveMixedSPDUnderChaos: injected task failures that the retry
// policy absorbs — in the convert, factorization, residual and correction
// tasks alike — leave x and the report bitwise those of a clean run.
func TestSolveMixedSPDUnderChaos(t *testing.T) {
	const n = 300
	rng := rand.New(rand.NewSource(23))
	a := exadla.RandomSPDWithCond(rng, n, 1e4)
	b := exadla.RandomGeneral(rng, n, 1)
	clean := newCtx(t, exadla.WithWorkers(2), exadla.WithTileSize(48))
	x, res, err := clean.SolveMixedSPD(a, b)
	if err != nil {
		t.Fatal(err)
	}
	chaos := newCtx(t, exadla.WithWorkers(2), exadla.WithTileSize(48), exadla.WithChaos(24, 0.05), exadla.WithTaskRetry(50, 0))
	xc, resc, err := chaos.SolveMixedSPD(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if st := chaos.FaultStats(); st.Retried == 0 {
		t.Errorf("no task was retried: %+v", st)
	}
	if res != resc {
		t.Errorf("report %+v, under chaos %+v", res, resc)
	}
	for i := range n {
		if math.Float64bits(x.At(i, 0)) != math.Float64bits(xc.At(i, 0)) {
			t.Fatalf("x[%d] = %v, under chaos %v", i, x.At(i, 0), xc.At(i, 0))
		}
	}
}

func TestTSQRLeastSquares(t *testing.T) {
	ctx := newCtx(t)
	rng := rand.New(rand.NewSource(9))
	m, n := 500, 12
	a := exadla.RandomGeneral(rng, m, n)
	xTrue := exadla.RandomGeneral(rng, n, 1)
	b := multiply(t, ctx, a, xTrue)
	x, err := ctx.TSQRLeastSquares(a, b, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if math.Abs(x.At(i, 0)-xTrue.At(i, 0)) > 1e-9 {
			t.Fatalf("x[%d] differs", i)
		}
	}
}

func TestRandomizedLeastSquares(t *testing.T) {
	ctx := newCtx(t)
	rng := rand.New(rand.NewSource(10))
	m, n := 800, 20
	a := exadla.RandomWithCond(rng, m, n, 1e5)
	xTrue := exadla.RandomGeneral(rng, n, 1)
	b := multiply(t, ctx, a, xTrue)
	x, err := ctx.RandomizedLeastSquares(rng, a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if math.Abs(x.At(i, 0)-xTrue.At(i, 0)) > 1e-6 {
			t.Fatalf("x[%d] = %v want %v", i, x.At(i, 0), xTrue.At(i, 0))
		}
	}
}

// TestRandomizedLeastSquaresAllocatesNoDenseSketch: the SRHT sketch is
// applied column by column, never stored as an s×m matrix (16 MB here even
// at s = 2n), so a 20000×50 solve allocates about its working vectors, and
// its answer agrees with the tiled QR's.
func TestRandomizedLeastSquaresAllocatesNoDenseSketch(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation figures are meaningless under the race detector")
	}
	ctx := newCtx(t)
	rng := rand.New(rand.NewSource(57))
	m, n := 20000, 50
	a := exadla.RandomWithCond(rng, m, n, 1e6)
	b := multiply(t, ctx, a, exadla.RandomGeneral(rng, n, 1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	x, err := ctx.RandomizedLeastSquares(rng, a, b)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if mb := float64(after.TotalAlloc-before.TotalAlloc) / 1e6; mb >= 4 {
		t.Errorf("RandomizedLeastSquares allocated %.1f MB on %d×%d, want < 4", mb, m, n)
	}
	xQR, err := ctx.LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		ref := xQR.At(i, 0)
		if math.Abs(x.At(i, 0)-ref) > 1e-6*(1+math.Abs(ref)) {
			t.Fatalf("randomized disagrees with QR at %d: %v vs %v", i, x.At(i, 0), ref)
		}
	}
}

func TestCondEst(t *testing.T) {
	ctx := newCtx(t)
	rng := rand.New(rand.NewSource(11))
	a := exadla.RandomWithCond(rng, 100, 30, 1e4)
	est := ctx.CondEst(rng, a)
	if est < 1e3 || est > 1e5 {
		t.Errorf("cond estimate %g for cond 1e4", est)
	}
}

func TestMultiply(t *testing.T) {
	ctx := newCtx(t, exadla.WithTileSize(8))
	rng := rand.New(rand.NewSource(12))
	a := exadla.RandomGeneral(rng, 13, 21)
	b := exadla.RandomGeneral(rng, 21, 9)
	c := multiply(t, ctx, a, b)
	for i := 0; i < 13; i++ {
		for j := 0; j < 9; j++ {
			want := 0.0
			for k := 0; k < 21; k++ {
				want += a.At(i, k) * b.At(k, j)
			}
			if math.Abs(c.At(i, j)-want) > 1e-10 {
				t.Fatalf("C(%d,%d) = %v want %v", i, j, c.At(i, j), want)
			}
		}
	}
}

func TestTracing(t *testing.T) {
	ctx := newCtx(t, exadla.WithTracing(), exadla.WithTileSize(16))
	rng := rand.New(rand.NewSource(13))
	a := exadla.RandomSPD(rng, 64)
	if _, err := ctx.Cholesky(a); err != nil {
		t.Fatal(err)
	}
	st := ctx.TraceStats()
	if st.Tasks == 0 {
		t.Error("tracing recorded no tasks")
	}
	if st.ByKernel["potrf"] <= 0 {
		t.Error("no potrf kernel time recorded")
	}
	ctx.ResetTrace()
	if ctx.TraceStats().Tasks != 0 {
		t.Error("ResetTrace did not clear")
	}
}

func TestMatrixBasics(t *testing.T) {
	m := exadla.NewMatrix(3, 2)
	m.Set(2, 1, 5)
	if m.At(2, 1) != 5 {
		t.Error("At/Set")
	}
	c := m.Clone()
	c.Set(2, 1, 9)
	if m.At(2, 1) != 5 {
		t.Error("Clone not deep")
	}
	if r, cc := m.Dims(); r != 3 || cc != 2 {
		t.Error("Dims")
	}
	// Norms of a known matrix.
	a := exadla.FromSlice(2, 2, []float64{1, -3, 2, 4}) // [[1,2],[-3,4]]
	if a.Norm(exadla.One) != 6 {
		t.Errorf("One norm %v", a.Norm(exadla.One))
	}
	if a.Norm(exadla.Inf) != 7 {
		t.Errorf("Inf norm %v", a.Norm(exadla.Inf))
	}
	if a.Norm(exadla.Max) != 4 {
		t.Errorf("Max norm %v", a.Norm(exadla.Max))
	}
	want := math.Sqrt(1 + 9 + 4 + 16)
	if math.Abs(a.Norm(exadla.Frobenius)-want) > 1e-14 {
		t.Errorf("Frobenius %v", a.Norm(exadla.Frobenius))
	}
}

func TestDimensionErrors(t *testing.T) {
	ctx := newCtx(t)
	a := exadla.NewMatrix(3, 4)
	b := exadla.NewMatrix(3, 1)
	if _, err := ctx.Solve(a, b); err == nil {
		t.Error("Solve accepted non-square A")
	}
	sq := exadla.Identity(3)
	bad := exadla.NewMatrix(5, 1)
	if _, err := ctx.SolveSPD(sq, bad); err == nil {
		t.Error("SolveSPD accepted mismatched RHS")
	}
	if _, err := ctx.Multiply(a, sq); err == nil {
		t.Error("Multiply accepted a 3×4 · 3×3 product")
	}
	if _, err := ctx.LeastSquares(a, b); err == nil {
		t.Error("LeastSquares accepted wide matrix")
	}
	if _, err := ctx.TSQRLeastSquares(a, b, 2); err == nil {
		t.Error("TSQRLeastSquares accepted wide matrix")
	}
	tall := exadla.RandomGeneral(rand.New(rand.NewSource(10)), 48, 32)
	for _, qr := range []func(*exadla.Matrix) (*exadla.QRFactor, error){ctx.QR, ctx.QRTree} {
		f, err := qr(tall)
		if err != nil {
			t.Fatal(err)
		}
		for _, rows := range []int{32, 47, 49, 64} {
			if _, err := f.QTb(exadla.NewMatrix(rows, 2)); err == nil {
				t.Errorf("QTb accepted a %d-row B for a 48-row factor", rows)
			}
		}
	}
}

func TestFromSlicePanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	exadla.FromSlice(2, 2, []float64{1, 2, 3})
}

func TestInvert(t *testing.T) {
	ctx := newCtx(t)
	rng := rand.New(rand.NewSource(20))
	n := 60
	a := exadla.RandomWithCond(rng, n, n, 100)
	inv, err := ctx.Invert(a)
	if err != nil {
		t.Fatal(err)
	}
	prod := multiply(t, ctx, a, inv)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(prod.At(i, j)-want) > 1e-10*float64(n) {
				t.Fatalf("A·A⁻¹ (%d,%d) = %v", i, j, prod.At(i, j))
			}
		}
	}
}

func TestInvertSPD(t *testing.T) {
	ctx := newCtx(t)
	rng := rand.New(rand.NewSource(21))
	n := 50
	a := exadla.RandomSPD(rng, n)
	inv, err := ctx.InvertSPD(a)
	if err != nil {
		t.Fatal(err)
	}
	// Symmetric and a true inverse.
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			if inv.At(i, j) != inv.At(j, i) {
				t.Fatalf("inverse not symmetric at (%d,%d)", i, j)
			}
		}
	}
	prod := multiply(t, ctx, a, inv)
	for i := 0; i < n; i++ {
		if math.Abs(prod.At(i, i)-1) > 1e-10*float64(n) {
			t.Fatalf("diagonal (%d) = %v", i, prod.At(i, i))
		}
	}
}

func TestInvertSingular(t *testing.T) {
	ctx := newCtx(t)
	a := exadla.NewMatrix(4, 4) // zero matrix
	if _, err := ctx.Invert(a); err == nil {
		t.Error("expected error inverting singular matrix")
	}
}

func TestQRTreePublicAPI(t *testing.T) {
	ctx := newCtx(t, exadla.WithTileSize(16))
	rng := rand.New(rand.NewSource(22))
	m, n := 96, 32
	a := exadla.RandomGeneral(rng, m, n)
	f, err := ctx.QRTree(a)
	if err != nil {
		t.Fatal(err)
	}
	qta, err := f.QTb(a)
	if err != nil {
		t.Fatal(err)
	}
	r := f.R()
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			want := 0.0
			if i <= j {
				want = r.At(i, j)
			}
			if math.Abs(qta.At(i, j)-want) > 1e-10*float64(m) {
				t.Fatalf("tree QᵀA differs from R at (%d,%d)", i, j)
			}
		}
	}
}

func TestWithTuningTable(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tune.json")
	// Write a table mapping cholesky n=64 at this worker count to nb=8.
	tab := autotune.NewTable()
	tab.Set(autotune.Key("cholesky", 64, 3), 8)
	if err := tab.Save(path); err != nil {
		t.Fatal(err)
	}
	ctx := newCtx(t, exadla.WithWorkers(3), exadla.WithTileSize(32), exadla.WithTuningTable(path))
	rng := rand.New(rand.NewSource(30))
	a := exadla.RandomSPD(rng, 64)
	xTrue := exadla.RandomGeneral(rng, 64, 1)
	b := multiply(t, ctx, a, xTrue)
	x, err := ctx.SolveSPD(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if r := exadla.Residual(a, x, b); r > 1e-12 {
		t.Errorf("tuned solve residual %g", r)
	}
	// Untuned shape must still work through the default tile size.
	a2 := exadla.RandomSPD(rng, 50)
	b2 := multiply(t, ctx, a2, exadla.RandomGeneral(rng, 50, 1))
	if _, err := ctx.SolveSPD(a2, b2); err != nil {
		t.Fatal(err)
	}
}

func TestWithTuningTableGemmBlocking(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tune.json")
	// Machine-global gemm.* keys (as written by exatune -op gemm) must be
	// installed into the packed-GEMM blocking when the table is loaded;
	// absent fields keep their prior values.
	prev := blas.GemmBlocking()
	t.Cleanup(func() { blas.SetGemmBlocking(prev) })
	tab := autotune.NewTable()
	tab.Set(autotune.GlobalKey("gemm.kc"), 192)
	tab.Set(autotune.GlobalKey("gemm.mc"), 128)
	if err := tab.Save(path); err != nil {
		t.Fatal(err)
	}
	ctx := newCtx(t, exadla.WithTuningTable(path))
	got := blas.GemmBlocking()
	if got.KC != 192 || got.MC != 128 {
		t.Errorf("blocking after load = %+v, want KC=192 MC=128", got)
	}
	if got.MR != prev.MR || got.NR != prev.NR || got.NC != prev.NC {
		t.Errorf("untuned fields changed: %+v (prev %+v)", got, prev)
	}
	// The tuned blocking must still produce correct results end-to-end.
	rng := rand.New(rand.NewSource(31))
	a := exadla.RandomSPD(rng, 96)
	xTrue := exadla.RandomGeneral(rng, 96, 1)
	b := multiply(t, ctx, a, xTrue)
	x, err := ctx.SolveSPD(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if r := exadla.Residual(a, x, b); r > 1e-12 {
		t.Errorf("tuned solve residual %g", r)
	}
}

func TestWithTuningTableMissingFile(t *testing.T) {
	// Missing file is fine (empty table).
	ctx := exadla.NewContext(exadla.WithTuningTable(filepath.Join(t.TempDir(), "none.json")))
	ctx.Close()
}
