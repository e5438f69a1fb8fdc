package core_test

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"exadla/internal/blas"
	"exadla/internal/core"
	"exadla/internal/ft"
	"exadla/internal/matgen"
	"exadla/internal/metrics"
	"exadla/internal/sched"
	"exadla/internal/tile"
	"exadla/internal/trace"
)

// cleanCholesky returns the fault-free tile Cholesky factor of the seeded
// SPD test matrix, as a reference for the recovery tests.
func cleanCholesky(t *testing.T, n, nb int, seed int64) (input, factor []float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	aD := matgen.DiagDomSPD[float64](rng, n)
	a := tile.FromColMajor(n, n, aD, n, nb)
	r := sched.New(4)
	defer r.Shutdown()
	if err := core.Cholesky(r, a); err != nil {
		t.Fatal(err)
	}
	return aD, a.ToColMajor()
}

// lowerDiff is the max-abs difference over the meaningful (lower) triangle.
func lowerDiff(n int, a, b []float64) float64 {
	var d float64
	for j := 0; j < n; j++ {
		for i := j; i < n; i++ {
			if v := math.Abs(a[i+j*n] - b[i+j*n]); v > d {
				d = v
			}
		}
	}
	return d
}

func TestResilientCholeskyCleanMatchesPlain(t *testing.T) {
	const n, nb, seed = 192, 48, 31
	aD, want := cleanCholesky(t, n, nb, seed)
	a := tile.FromColMajor(n, n, aD, n, nb)
	var stats ft.Stats
	r := sched.New(4, sched.WithRetry(3, 0))
	defer r.Shutdown()
	if _, err := core.Protect(r, core.OpCholesky, a, nil, &core.FTOptions{Stats: &stats}); err != nil {
		t.Fatal(err)
	}
	// No faults injected: same kernels in the same DAG, so the factor is
	// bitwise identical and nothing is detected.
	if d := lowerDiff(n, a.ToColMajor(), want); d != 0 {
		t.Errorf("clean resilient factor differs from plain by %g", d)
	}
	if stats.Detected.Load() != 0 {
		t.Errorf("clean run detected %d faults", stats.Detected.Load())
	}
}

// TestResilientCholeskyRecoversFromInjection is the end-to-end ABFT
// acceptance test: mid-factorization corruption of a freshly factored
// diagonal tile and of a panel tile before its triangular solve is
// detected, corrected in place, and re-verified through the scheduler's
// retry path, and the final factor matches the fault-free run to a scaled
// tolerance.
func TestResilientCholeskyRecoversFromInjection(t *testing.T) {
	const n, nb, seed = 192, 48, 31
	aD, want := cleanCholesky(t, n, nb, seed)
	a := tile.FromColMajor(n, n, aD, n, nb)

	inj := ft.NewInjector(7)
	var stats ft.Stats
	hook := func(step int, m *tile.Matrix[float64]) {
		switch step {
		case 1:
			// Corrupt the freshly factored diagonal tile (post-potrf,
			// pre-verify): caught by the lower-triangle witness. The noise
			// magnitude sits well above the scaled detection tolerance (a
			// FlipBit on a small entry can land below it, which is exactly
			// the "numerically irrelevant" regime the tolerance ignores).
			inj.AddNoise(m.Tile(1, 1), 2+1*m.TileRows(1), m.TileRows(1), 1e-3)
			stats.Injected.Add(1)
		case 2:
			// Corrupt a panel tile before its trsm: the error propagates
			// through the solve into several columns of row r, each located
			// and corrected by the post-trsm verification.
			inj.AddNoise(m.Tile(3, 2), 5+4*m.TileRows(3), m.TileRows(3), 0.5)
			stats.Injected.Add(1)
		}
	}

	var retried atomic.Int64 // the observer runs on every worker
	r := sched.New(4,
		sched.WithRetry(3, 0),
		sched.WithFailureObserver(func(ev trace.Event, _ error) {
			if ev.Outcome != trace.OutcomeFailed {
				retried.Add(1)
			}
		}),
	)
	defer r.Shutdown()
	_, err := core.Protect(r, core.OpCholesky, a, nil, &core.FTOptions{InjectHook: hook, Stats: &stats})
	if err != nil {
		t.Fatalf("resilient factorization failed to recover: %v", err)
	}
	if stats.Detected.Load() < 2 {
		t.Errorf("detected %d corruption events, want >= 2", stats.Detected.Load())
	}
	if stats.Corrected.Load() < 2 {
		t.Errorf("corrected %d faults, want >= 2", stats.Corrected.Load())
	}
	if stats.Unlocated.Load() != 0 {
		t.Errorf("%d unlocatable faults in a single-fault-per-column scenario", stats.Unlocated.Load())
	}
	if retried.Load() == 0 {
		t.Error("recovery did not go through the scheduler retry path")
	}
	// The corrected factor must match the fault-free factor to the scaled
	// detection tolerance (corrections cancel the injected deltas up to
	// checksum rounding drift).
	tol := ft.DetectTol(normLower(n, aD), n)
	if d := lowerDiff(n, a.ToColMajor(), want); d > tol {
		t.Errorf("recovered factor differs from fault-free by %g (tol %g)", d, tol)
	}
}

func normLower(n int, a []float64) float64 {
	var norm float64
	for j := 0; j < n; j++ {
		for i := j; i < n; i++ {
			if v := math.Abs(a[i+j*n]); v > norm {
				norm = v
			}
		}
	}
	return norm
}

// TestResilientCholeskyUnlocatableFails: corruption the checksums can see
// but not locate (two faults in one column) must fail the factorization
// rather than silently mis-correct.
func TestResilientCholeskyUnlocatableFails(t *testing.T) {
	const n, nb, seed = 96, 32, 31
	rng := rand.New(rand.NewSource(seed))
	aD := matgen.DiagDomSPD[float64](rng, n)
	a := tile.FromColMajor(n, n, aD, n, nb)
	var stats ft.Stats
	hook := func(step int, m *tile.Matrix[float64]) {
		if step != 0 {
			return
		}
		ld := m.TileRows(1)
		m.Tile(1, 0)[3+2*ld] += 1000
		m.Tile(1, 0)[9+2*ld] -= 999.9999
	}
	r := sched.New(2, sched.WithRetry(2, 0))
	defer r.Shutdown()
	_, err := core.Protect(r, core.OpCholesky, a, nil, &core.FTOptions{InjectHook: hook, Stats: &stats})
	if err == nil {
		t.Fatal("unlocatable corruption did not fail the factorization")
	}
	var ce *ft.CorruptionError
	if !errors.As(err, &ce) {
		t.Fatalf("error %v does not unwrap to a CorruptionError", err)
	}
	if stats.Unlocated.Load() == 0 {
		t.Error("no unlocatable faults recorded")
	}
}

// TestProtectIllScaledNoFalsePositives: a badly scaled SPD matrix (entries
// around 1e10) must factor under the guard without phantom detections — the
// point of the norm-scaled tolerance — while a corruption proportional to
// the factor's scale is still detected and corrected.
func TestProtectIllScaledNoFalsePositives(t *testing.T) {
	const n, nb, scale = 64, 16, 1e10
	rng := rand.New(rand.NewSource(21))
	aD := matgen.DiagDomSPD[float64](rng, n)
	for i := range aD {
		aD[i] *= scale
	}
	guarded := func(hook func(int, *tile.Matrix[float64])) ([]float64, *ft.Stats) {
		t.Helper()
		a := tile.FromColMajor(n, n, aD, n, nb)
		var stats ft.Stats
		r := sched.New(2, sched.WithRetry(3, 0))
		defer r.Shutdown()
		if _, err := core.Protect(r, core.OpCholesky, a, nil, &core.FTOptions{InjectHook: hook, Stats: &stats}); err != nil {
			t.Fatal(err)
		}
		return a.ToColMajor(), &stats
	}
	want, stats := guarded(nil)
	if d := stats.Detected.Load(); d != 0 {
		t.Fatalf("clean ill-scaled factorization reported %d phantom detections", d)
	}
	got, stats := guarded(func(step int, m *tile.Matrix[float64]) {
		if step == 0 {
			// Entry (5, 3) of the freshly factored diagonal tile.
			m.Tile(0, 0)[5+3*m.TileRows(0)] += 1e-3 * math.Sqrt(scale)
		}
	})
	if stats.Detected.Load() != 1 || stats.Corrected.Load() != 1 || stats.Unlocated.Load() != 0 {
		t.Fatalf("detected %d / corrected %d / unlocated %d, want 1 / 1 / 0",
			stats.Detected.Load(), stats.Corrected.Load(), stats.Unlocated.Load())
	}
	if d, tol := lowerDiff(n, got, want), ft.DetectTol(normLower(n, aD), n); d > tol {
		t.Errorf("recovered factor differs from the clean guarded one by %g (tol %g)", d, tol)
	}
}

// TestProtectFlipBitRecovery drives ft.Injector.FlipBit through the guard's
// hook: each trial flips a bit of a seeded entry of a finalized diagonal
// tile between its potrf and its verification. Every flip above the
// detection tolerance must be located at the flipped entry and repaired,
// leaving the factor bitwise equal to the clean guarded run.
func TestProtectFlipBitRecovery(t *testing.T) {
	const n, nb, seed = 128, 32, 15
	rng := rand.New(rand.NewSource(seed))
	aD := matgen.DiagDomSPD[float64](rng, n)
	want := tile.FromColMajor(n, n, aD, n, nb)
	r := sched.New(2, sched.WithRetry(3, 0))
	if _, err := core.Protect(r, core.OpCholesky, want, nil, &core.FTOptions{}); err != nil {
		t.Fatal(err)
	}
	r.Shutdown()
	tol := ft.DetectTol(normLower(n, aD), n)

	significant := 0
	const trials = 25
	for trial := 0; trial < trials; trial++ {
		inj := ft.NewInjector(int64(200 + trial))
		k := trial % want.NT
		var injected ft.Fault
		hook := func(step int, m *tile.Matrix[float64]) {
			if step != k {
				return
			}
			ld := m.TileRows(k)
			i, j := rng.Intn(ld), rng.Intn(ld)
			injected = inj.FlipBit(m.Tile(k, k), max(i, j)+min(i, j)*ld, ld)
		}
		var mu sync.Mutex
		var reports []*ft.CorruptionError
		a := tile.FromColMajor(n, n, aD, n, nb)
		r := sched.New(2, sched.WithRetry(3, 0), sched.WithFailureObserver(func(_ trace.Event, err error) {
			var ce *ft.CorruptionError
			if errors.As(err, &ce) {
				mu.Lock()
				reports = append(reports, ce)
				mu.Unlock()
			}
		}))
		_, err := core.Protect(r, core.OpCholesky, a, nil, &core.FTOptions{InjectHook: hook})
		r.Shutdown()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if math.Abs(injected.Delta) <= tol {
			continue // below the detection tolerance by design
		}
		significant++
		if len(reports) != 1 || reports[0].TileRow != k || reports[0].TileCol != k ||
			len(reports[0].Faults) != 1 || reports[0].Faults[0].Row != injected.Row || reports[0].Faults[0].Col != injected.Col {
			t.Errorf("trial %d: flip at tile (%d,%d) entry (%d,%d) reported as %v",
				trial, k, k, injected.Row, injected.Col, reports)
			continue
		}
		if d := lowerDiff(n, a.ToColMajor(), want.ToColMajor()); d != 0 {
			t.Errorf("trial %d: repaired factor differs from the clean guarded run by %g", trial, d)
		}
	}
	if significant == 0 {
		t.Fatal("no flip above the detection tolerance; seeds need adjusting")
	}
}

// TestCholeskyChaosWithRetryCompletes is the seeded chaos acceptance run:
// p = 0.05 task-kill probability over the n=512 tile Cholesky completes with
// a nil error, a bitwise-correct factor (chaos kills strike before the task
// body, so every kernel still executes exactly once), and >0 retried tasks
// in the runtime metrics.
func TestCholeskyChaosWithRetryCompletes(t *testing.T) {
	const n, nb, seed = 512, 64, 42
	aD, want := cleanCholesky(t, n, nb, seed)
	a := tile.FromColMajor(n, n, aD, n, nb)
	reg := metrics.New()
	r := sched.New(4,
		sched.WithMetrics(reg),
		sched.WithRetry(50, 0),
		sched.WithChaos(sched.Chaos{Seed: 2016, FailProb: 0.05}),
	)
	defer r.Shutdown()
	if err := core.Cholesky(r, a); err != nil {
		t.Fatalf("chaos run failed: %v", err)
	}
	if d := lowerDiff(n, a.ToColMajor(), want); d != 0 {
		t.Errorf("chaos-run factor differs from clean run by %g", d)
	}
	if got := reg.Snapshot().Counters["sched.tasks_retried"]; got == 0 {
		t.Error("chaos run reported 0 retried tasks")
	}
}

// TestLUChaosWithRetryCompletes is the LU half of the chaos acceptance run.
func TestLUChaosWithRetryCompletes(t *testing.T) {
	const n, nb, seed = 512, 64, 43
	rng := rand.New(rand.NewSource(seed))
	aD := matgen.DiagDomSPD[float64](rng, n)
	clean := tile.FromColMajor(n, n, aD, n, nb)
	rc := sched.New(4)
	if _, err := core.LU(rc, clean); err != nil {
		t.Fatal(err)
	}
	rc.Shutdown()

	a := tile.FromColMajor(n, n, aD, n, nb)
	reg := metrics.New()
	r := sched.New(4,
		sched.WithMetrics(reg),
		sched.WithRetry(50, 0),
		sched.WithChaos(sched.Chaos{Seed: 2016, FailProb: 0.05}),
	)
	defer r.Shutdown()
	if _, err := core.LU(r, a); err != nil {
		t.Fatalf("chaos run failed: %v", err)
	}
	if d := maxAbsDiff(a.ToColMajor(), clean.ToColMajor()); d != 0 {
		t.Errorf("chaos-run LU factor differs from clean run by %g", d)
	}
	if got := reg.Snapshot().Counters["sched.tasks_retried"]; got == 0 {
		t.Error("chaos run reported 0 retried tasks")
	}
}

// TestCholeskyChaosWithoutRetryFailsGracefully: the same chaos run with
// retries disabled must surface an aggregated error naming the killed
// kernel instead of panicking or hanging.
func TestCholeskyChaosWithoutRetryFailsGracefully(t *testing.T) {
	const n, nb = 256, 64
	rng := rand.New(rand.NewSource(44))
	aD := matgen.DiagDomSPD[float64](rng, n)
	a := tile.FromColMajor(n, n, aD, n, nb)
	r := sched.New(4, sched.WithChaos(sched.Chaos{Seed: 2016, FailProb: 0.05}))
	defer r.Shutdown()
	err := core.Cholesky(r, a)
	if err == nil {
		t.Fatal("chaos without retries returned nil")
	}
	var fe *sched.FailuresError
	if !errors.As(err, &fe) {
		t.Fatalf("error %T does not unwrap to *sched.FailuresError: %v", err, err)
	}
	if !errors.Is(err, sched.ErrInjected) {
		t.Errorf("error does not unwrap to ErrInjected: %v", err)
	}
	msg := err.Error()
	if !strings.Contains(msg, "potrf") && !strings.Contains(msg, "trsm") &&
		!strings.Contains(msg, "syrk") && !strings.Contains(msg, "gemm") {
		t.Errorf("error %q does not name a kernel", msg)
	}
}

// luSolveResidual factors a copy of aD resiliently and checks it still
// solves A·x = b accurately.
func luSolveResidual(t *testing.T, n, nb int, aD []float64, opt core.FTOptions, opts ...sched.Option) float64 {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	a := tile.FromColMajor(n, n, append([]float64(nil), aD...), n, nb)
	xWant := matgen.Dense[float64](rng, n, 1)
	bD := make([]float64, n)
	blas.Gemv(blas.NoTrans, n, n, 1, aD, n, xWant, 1, 0, bD, 1)
	b := tile.FromColMajor(n, 1, bD, n, nb)

	r := sched.New(4, opts...)
	defer r.Shutdown()
	f, err := core.Protect(r, core.OpLU, a, nil, &opt)
	if err != nil {
		t.Fatalf("resilient LU: %v", err)
	}
	if err := core.Solve(r, f, b); err != nil {
		t.Fatal(err)
	}
	got := b.ToColMajor()
	var diff float64
	for i := range xWant {
		if d := math.Abs(got[i] - xWant[i]); d > diff {
			diff = d
		}
	}
	return diff
}

func TestResilientLURecoversFromInjection(t *testing.T) {
	const n, nb = 192, 48
	rng := rand.New(rand.NewSource(45))
	aD := matgen.DiagDomSPD[float64](rng, n)
	inj := ft.NewInjector(9)
	var stats ft.Stats
	hook := func(step int, m *tile.Matrix[float64]) {
		// Corrupt finalized factor data right after its checksums were
		// recorded: a sub-diagonal panel tile at step 0 and a U tile of
		// row 1 at step 1.
		switch step {
		case 0:
			inj.AddNoise(m.Tile(2, 0), 7+3*m.TileRows(2), m.TileRows(2), 1e-3)
			stats.Injected.Add(1)
		case 1:
			inj.AddNoise(m.Tile(1, 3), 4+9*m.TileRows(1), m.TileRows(1), 2.0)
			stats.Injected.Add(1)
		}
	}
	diff := luSolveResidual(t, n, nb, aD, core.FTOptions{InjectHook: hook, Stats: &stats},
		sched.WithRetry(3, 0))
	if stats.Detected.Load() < 2 || stats.Corrected.Load() < 2 {
		t.Errorf("detected %d / corrected %d, want >= 2 each",
			stats.Detected.Load(), stats.Corrected.Load())
	}
	if diff > 1e-6 {
		t.Errorf("solution error %g after recovery", diff)
	}
}

func TestResilientLUCleanSolves(t *testing.T) {
	const n, nb = 192, 48
	rng := rand.New(rand.NewSource(46))
	aD := matgen.DiagDomSPD[float64](rng, n)
	var stats ft.Stats
	diff := luSolveResidual(t, n, nb, aD, core.FTOptions{Stats: &stats}, sched.WithRetry(3, 0))
	if diff > 1e-8 {
		t.Errorf("solution error %g on clean resilient LU", diff)
	}
	if stats.Detected.Load() != 0 {
		t.Errorf("clean run detected %d faults", stats.Detected.Load())
	}
}

// TestResilientCholeskyChaosAndInjection exercises everything at once:
// chaos task kills, checksum corruption, retries, and recovery.
func TestResilientCholeskyChaosAndInjection(t *testing.T) {
	const n, nb, seed = 256, 64, 47
	aD, want := cleanCholesky(t, n, nb, seed)
	a := tile.FromColMajor(n, n, aD, n, nb)
	inj := ft.NewInjector(11)
	var stats ft.Stats
	hook := func(step int, m *tile.Matrix[float64]) {
		if step == 1 {
			inj.AddNoise(m.Tile(2, 1), 3+5*m.TileRows(2), m.TileRows(2), 1.0)
			stats.Injected.Add(1)
		}
	}
	r := sched.New(4,
		sched.WithRetry(50, 0),
		sched.WithChaos(sched.Chaos{Seed: 77, FailProb: 0.05}),
	)
	defer r.Shutdown()
	_, err := core.Protect(r, core.OpCholesky, a, nil, &core.FTOptions{InjectHook: hook, Stats: &stats})
	if err != nil {
		t.Fatalf("combined chaos+injection run failed: %v", err)
	}
	if stats.Detected.Load() == 0 {
		t.Error("injected corruption was not detected")
	}
	tol := ft.DetectTol(normLower(n, aD), n)
	if d := lowerDiff(n, a.ToColMajor(), want); d > tol {
		t.Errorf("recovered factor differs from fault-free by %g (tol %g)", d, tol)
	}
}
