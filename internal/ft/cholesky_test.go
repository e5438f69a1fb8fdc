package ft_test

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"

	"exadla/internal/blas"
	"exadla/internal/core"
	"exadla/internal/ft"
	"exadla/internal/lapack"
	"exadla/internal/matgen"
	"exadla/internal/sched"
	"exadla/internal/tile"
	"exadla/internal/trace"
)

// The ABFT Cholesky is core.Protect's tile guard: these tests drive the
// package's checksums and injector through it.

// guardedRun is one core.Protect Cholesky with the injection hook given.
type guardedRun struct {
	a       *tile.Matrix[float64]
	f       *core.Factors[float64]
	stats   ft.Stats
	reports []*ft.CorruptionError
	err     error
}

// guardedCholesky factors the column-major n×n SPD matrix aD under the
// tile guard with tile size nb, collecting the corruption reports the
// retry path sees.
func guardedCholesky(n, nb int, aD []float64, hook func(int, *tile.Matrix[float64])) *guardedRun {
	g := &guardedRun{a: tile.FromColMajor(n, n, aD, n, nb)}
	var mu sync.Mutex
	r := sched.New(2, sched.WithRetry(3, 0), sched.WithFailureObserver(func(_ trace.Event, err error) {
		var ce *ft.CorruptionError
		if errors.As(err, &ce) {
			mu.Lock()
			g.reports = append(g.reports, ce)
			mu.Unlock()
		}
	}))
	defer r.Shutdown()
	g.f, g.err = core.Protect(r, core.OpCholesky, g.a, nil, &core.FTOptions{InjectHook: hook, Stats: &g.stats})
	return g
}

// solve solves A·x = b with the guarded factor.
func (g *guardedRun) solve(t *testing.T, b []float64) []float64 {
	t.Helper()
	n := len(b)
	bt := tile.FromColMajor(n, 1, b, n, g.a.NB)
	r := sched.New(2)
	defer r.Shutdown()
	if err := core.Solve(r, g.f, bt); err != nil {
		t.Fatal(err)
	}
	return bt.ToColMajor()
}

// lowerMaxDiff is the max-abs difference over the lower triangle of two
// column-major n×n matrices.
func lowerMaxDiff(n int, a, b []float64) float64 {
	var d float64
	for j := 0; j < n; j++ {
		for i := j; i < n; i++ {
			d = math.Max(d, math.Abs(a[i+j*n]-b[i+j*n]))
		}
	}
	return d
}

// lowerMaxAbs is the max-abs entry of the lower triangle of the
// column-major n×n matrix a — the norm the guard's tolerance reads.
func lowerMaxAbs(n int, a []float64) float64 {
	var m float64
	for j := 0; j < n; j++ {
		for i := j; i < n; i++ {
			m = math.Max(m, math.Abs(a[i+j*n]))
		}
	}
	return m
}

// spdSystem returns a seeded SPD matrix, a true solution and its
// right-hand side.
func spdSystem(seed int64, n int) (a, xTrue, b []float64) {
	rng := rand.New(rand.NewSource(seed))
	a = matgen.DiagDomSPD[float64](rng, n)
	xTrue = matgen.Dense[float64](rng, n, 1)
	b = make([]float64, n)
	blas.Symv(blas.Lower, n, 1, a, n, xTrue, 1, 0, b, 1)
	return a, xTrue, b
}

func TestABFTCholeskyCleanRun(t *testing.T) {
	const n, nb = 60, 16
	a, xTrue, b := spdSystem(5, n)
	g := guardedCholesky(n, nb, a, nil)
	if g.err != nil {
		t.Fatal(g.err)
	}
	if d := g.stats.Detected.Load(); d != 0 || len(g.reports) != 0 {
		t.Errorf("false positives on clean factorization: %d detections, reports %v", d, g.reports)
	}
	// The factor must actually solve the system.
	for i, v := range g.solve(t, b) {
		if math.Abs(v-xTrue[i]) > 1e-8 {
			t.Fatalf("solve error at %d: %g vs %g", i, v, xTrue[i])
		}
	}
}

// TestABFTCholeskyChecksumsAreColumnSums: the guard never re-sums a tile
// mid-factorization; it carries the 2×nb checksum pair through the same
// right-side kernels that update the tile. After potrf, trsm and gemm the
// carried pair must still be the column sums of the updated tile.
func TestABFTCholeskyChecksumsAreColumnSums(t *testing.T) {
	const nb = 12
	rng := rand.New(rand.NewSource(6))
	l := matgen.DiagDomSPD[float64](rng, nb)
	if err := lapack.Potrf(blas.Lower, nb, l, nb); err != nil {
		t.Fatal(err)
	}
	panel := matgen.Dense[float64](rng, nb, nb)
	upd := matgen.Dense[float64](rng, nb, nb)
	sums := make([]float64, 2*nb)
	updSums := make([]float64, 2*nb)
	ft.ColSums(nb, nb, panel, nb, sums)
	ft.ColSums(nb, nb, upd, nb, updSums)

	// trsm: panel ← panel·L⁻ᵀ, and the pair with it.
	blas.Trsm(blas.Right, blas.Lower, blas.Trans, blas.NonUnit, nb, nb, 1, l, nb, panel, nb)
	blas.Trsm(blas.Right, blas.Lower, blas.Trans, blas.NonUnit, 2, nb, 1, l, nb, sums, 2)
	// gemm: upd ← upd − panel·panelᵀ; its pair follows via sums(panel)·panelᵀ.
	blas.Gemm(blas.NoTrans, blas.Trans, nb, nb, nb, -1, panel, nb, panel, nb, 1, upd, nb)
	blas.Gemm(blas.NoTrans, blas.Trans, 2, nb, nb, -1, sums, 2, panel, nb, 1, updSums, 2)

	check := func(name string, m []float64, carried []float64, tril bool) {
		t.Helper()
		want := make([]float64, 2*nb)
		if tril {
			ft.TrilColSums(nb, m, nb, want)
		} else {
			ft.ColSums(nb, nb, m, nb, want)
		}
		for j, s := range want {
			if math.Abs(s-carried[j]) > 1e-9*(math.Abs(s)+1) {
				t.Fatalf("%s: checksum %d carried %g, column sum %g", name, j, carried[j], s)
			}
		}
	}
	check("trsm", panel, sums, false)
	check("gemm", upd, updSums, false)
	// The diagonal witness is the lower-triangle sum of the potrf'd tile:
	// the stale upper triangle must not enter it.
	witness := make([]float64, 2*nb)
	ft.TrilColSums(nb, l, nb, witness)
	for j := 1; j < nb; j++ {
		l[0+j*nb] = 1e6
	}
	check("potrf", l, witness, true)
}

// TestABFTCholeskyDetectCorrectStoredFault: a finalized diagonal factor
// tile is corrupted after its potrf (a DRAM upset before the factor is
// read again); the guard must locate the entry and repair it.
func TestABFTCholeskyDetectCorrectStoredFault(t *testing.T) {
	const n, nb = 50, 16
	a, _, _ := spdSystem(7, n)
	clean := guardedCholesky(n, nb, a, nil)
	if clean.err != nil {
		t.Fatal(clean.err)
	}
	want := clean.a.ToColMajor()
	for trial := 0; trial < 20; trial++ {
		inj := ft.NewInjector(int64(trial + 40))
		k := trial % clean.a.NT
		var injected ft.Fault
		g := guardedCholesky(n, nb, a, func(step int, m *tile.Matrix[float64]) {
			if step == k {
				injected = inj.AddNoise(m.Tile(k, k), inj.RandomLowerIndex(m.TileRows(k)), m.TileRows(k), 10)
			}
		})
		if g.err != nil {
			t.Fatalf("trial %d: %v", trial, g.err)
		}
		if len(g.reports) != 1 || g.reports[0].TileRow != k || g.reports[0].TileCol != k ||
			len(g.reports[0].Faults) != 1 || g.reports[0].Faults[0].Row != injected.Row || g.reports[0].Faults[0].Col != injected.Col {
			t.Fatalf("trial %d: reports %v, injected %v in tile (%d,%d)", trial, g.reports, injected, k, k)
		}
		if g.stats.Corrected.Load() != 1 {
			t.Fatalf("trial %d: corrected %d, want 1", trial, g.stats.Corrected.Load())
		}
		if d := lowerMaxDiff(n, g.a.ToColMajor(), want); d > 1e-8 {
			t.Fatalf("trial %d: correction imperfect by %g", trial, d)
		}
	}
}

// TestABFTCholeskyRecoveredSolveAccuracy: end to end, a solve with the
// recovered factor must be as good as a fault-free one.
func TestABFTCholeskyRecoveredSolveAccuracy(t *testing.T) {
	const n, nb = 40, 16
	a, xTrue, b := spdSystem(8, n)
	inj := ft.NewInjector(99)
	g := guardedCholesky(n, nb, a, func(step int, m *tile.Matrix[float64]) {
		if step == 0 {
			inj.AddNoise(m.Tile(0, 0), inj.RandomLowerIndex(m.TileRows(0)), m.TileRows(0), 25)
		}
	})
	if g.err != nil {
		t.Fatal(g.err)
	}
	if g.stats.Detected.Load() != 1 || g.stats.Corrected.Load() != 1 {
		t.Fatalf("detected %d / corrected %d, want 1 / 1", g.stats.Detected.Load(), g.stats.Corrected.Load())
	}
	for i, v := range g.solve(t, b) {
		if math.Abs(v-xTrue[i]) > 1e-8 {
			t.Fatalf("recovered solve wrong at %d: %g vs %g", i, v, xTrue[i])
		}
	}
}

// TestABFTCholeskyNotPD: the guard must not hide a failed factorization —
// a non-SPD input fails as it does unprotected.
func TestABFTCholeskyNotPD(t *testing.T) {
	const n, nb = 20, 8
	a := matgen.Identity[float64](n)
	a[13+13*n] = -1
	g := guardedCholesky(n, nb, a, nil)
	var pd *lapack.NotPositiveDefiniteError
	if !errors.As(g.err, &pd) {
		t.Fatalf("expected NotPositiveDefiniteError, got %v", g.err)
	}
	if pd.Index != 13 {
		t.Errorf("index %d, want 13", pd.Index)
	}
}

// TestInjectorMidFactorizationRecovery drives the injector through the
// guard's hook: the factor's last diagonal entry is bit-flipped the moment
// its potrf computes it, so nothing downstream reads the corruption and
// only the witness checksums can catch it — and must locate and repair it.
func TestInjectorMidFactorizationRecovery(t *testing.T) {
	const n, nb = 40, 16
	a, _, _ := spdSystem(15, n)
	clean := guardedCholesky(n, nb, a, nil)
	if clean.err != nil {
		t.Fatal(clean.err)
	}
	want := clean.a.ToColMajor()
	last := clean.a.NT - 1
	tol := ft.DetectTol(lowerMaxAbs(n, a), n)

	significant := 0
	const trials = 25
	for trial := 0; trial < trials; trial++ {
		inj := ft.NewInjector(int64(200 + trial))
		var injected ft.Fault
		g := guardedCholesky(n, nb, a, func(step int, m *tile.Matrix[float64]) {
			if step == last {
				ld := m.TileRows(last)
				injected = inj.FlipBit(m.Tile(last, last), (ld-1)+(ld-1)*ld, ld)
			}
		})
		if g.err != nil {
			t.Fatalf("trial %d: %v", trial, g.err)
		}
		if len(inj.Injected) != 1 {
			t.Fatalf("trial %d: hook injected %d faults", trial, len(inj.Injected))
		}
		if math.Abs(injected.Delta) <= tol {
			continue // below the checksum detection threshold by design
		}
		significant++
		ld := g.a.TileRows(last)
		if len(g.reports) != 1 || len(g.reports[0].Faults) != 1 ||
			g.reports[0].Faults[0].Row != ld-1 || g.reports[0].Faults[0].Col != ld-1 {
			t.Errorf("trial %d: flip of the last diagonal entry reported as %v", trial, g.reports)
			continue
		}
		if d := lowerMaxDiff(n, g.a.ToColMajor(), want); d > 1e-8 {
			t.Fatalf("trial %d: recovered factor differs by %g", trial, d)
		}
	}
	if significant == 0 {
		t.Fatal("no significant flips across all trials; seeds need adjusting")
	}
}
