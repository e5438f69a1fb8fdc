package core_test

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"exadla/internal/blas"
	"exadla/internal/core"
	"exadla/internal/lapack"
	"exadla/internal/matgen"
	"exadla/internal/sched"
	"exadla/internal/tile"
	"exadla/internal/trace"
)

// schedulers returns the execution environments every algorithm is tested
// under: the sequential recorder and real runtimes with 1 and 4 workers.
func schedulers(t *testing.T) map[string]func() (sched.Scheduler, func()) {
	return map[string]func() (sched.Scheduler, func()){
		"recorder": func() (sched.Scheduler, func()) {
			return sched.NewRecorder(), func() {}
		},
		"runtime1": func() (sched.Scheduler, func()) {
			r := sched.New(1)
			return r, r.Shutdown
		},
		"runtime4": func() (sched.Scheduler, func()) {
			r := sched.New(4)
			return r, r.Shutdown
		},
	}
}

func maxAbsDiff(a, b []float64) float64 {
	var d float64
	for i := range a {
		if v := math.Abs(a[i] - b[i]); v > d {
			d = v
		}
	}
	return d
}

func TestTileGemm(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m, n, k, nb := 37, 29, 23, 8
	aD := matgen.Dense[float64](rng, m, k)
	bD := matgen.Dense[float64](rng, k, n)
	cD := matgen.Dense[float64](rng, m, n)
	want := append([]float64(nil), cD...)
	blas.RefGemm(blas.NoTrans, blas.NoTrans, m, n, k, 1, aD, m, bD, k, 0, want, m)

	a := tile.FromColMajor(m, k, aD, m, nb)
	b := tile.FromColMajor(k, n, bD, k, nb)
	c := tile.FromColMajor(m, n, cD, m, nb)
	r := sched.New(3)
	core.Gemm(r, a, b, c)
	r.Wait()
	r.Shutdown()
	if d := maxAbsDiff(c.ToColMajor(), want); d > 1e-10*float64(k) {
		t.Errorf("tile Gemm: max diff %g", d)
	}
}

func choleskyResidual(t *testing.T, n, nb int, forkJoin bool, mk func() (sched.Scheduler, func())) float64 {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(n*1000 + nb)))
	aD := matgen.DiagDomSPD[float64](rng, n)
	a := tile.FromColMajor(n, n, aD, n, nb)
	s, done := mk()
	defer done()
	if _, err := core.Factor(s, core.OpCholesky, a, nil, forkJoin); err != nil {
		t.Fatalf("n=%d nb=%d: %v", n, nb, err)
	}
	// Reconstruct L·Lᵀ from the lower tiles.
	f := a.ToColMajor()
	l := make([]float64, n*n)
	for j := 0; j < n; j++ {
		for i := j; i < n; i++ {
			l[i+j*n] = f[i+j*n]
		}
	}
	recon := make([]float64, n*n)
	blas.Gemm(blas.NoTrans, blas.Trans, n, n, n, 1, l, n, l, n, 0, recon, n)
	var diff, norm float64
	for j := 0; j < n; j++ {
		for i := j; i < n; i++ {
			if d := math.Abs(recon[i+j*n] - aD[i+j*n]); d > diff {
				diff = d
			}
			if v := math.Abs(aD[i+j*n]); v > norm {
				norm = v
			}
		}
	}
	return diff / (norm * float64(n) * 0x1p-52)
}

func TestTileCholesky(t *testing.T) {
	for name, mk := range schedulers(t) {
		for _, d := range [][2]int{{1, 4}, {7, 4}, {8, 4}, {33, 8}, {64, 16}, {100, 16}, {96, 32}} {
			if r := choleskyResidual(t, d[0], d[1], false, mk); r > 30 {
				t.Errorf("%s n=%d nb=%d: residual %g", name, d[0], d[1], r)
			}
		}
	}
}

func TestTileCholeskyForkJoin(t *testing.T) {
	for name, mk := range schedulers(t) {
		if r := choleskyResidual(t, 64, 16, true, mk); r > 30 {
			t.Errorf("%s: fork-join residual %g", name, r)
		}
	}
}

// TestForkJoinReturnsTaskFailures kills every task attempt on a 1-worker
// runtime: the fork–join walks must return the failures through their
// error, as the dataflow walks do, instead of panicking at a barrier, and
// the first failure must be the seq-0 panel task.
func TestForkJoinReturnsTaskFailures(t *testing.T) {
	const n, nb = 64, 16
	walks := map[string]func(s sched.Scheduler, a *tile.Matrix[float64]) error{
		"cholesky": func(s sched.Scheduler, a *tile.Matrix[float64]) error {
			_, err := core.Factor(s, core.OpCholesky, a, nil, true)
			return err
		},
		"lu": func(s sched.Scheduler, a *tile.Matrix[float64]) error {
			_, err := core.Factor(s, core.OpLU, a, nil, true)
			return err
		},
	}
	panel := map[string]string{"cholesky": "potrf", "lu": "getrf"}
	for name, walk := range walks {
		rng := rand.New(rand.NewSource(5))
		a := tile.FromColMajor(n, n, matgen.DiagDomSPD[float64](rng, n), n, nb)
		r := sched.New(1, sched.WithChaos(sched.Chaos{Seed: 3, FailProb: 1}))
		err := walk(r, a)
		r.Shutdown()
		var fe *sched.FailuresError
		if !errors.As(err, &fe) {
			t.Fatalf("%s: fork-join walk returned %v, want a *sched.FailuresError", name, err)
		}
		if f := fe.Failures[0]; f.Seq != 0 || f.Kernel != panel[name] {
			t.Errorf("%s: first failure is %q seq %d, want %q seq 0", name, f.Kernel, f.Seq, panel[name])
		}
	}
}

func TestTileCholeskyNotPD(t *testing.T) {
	n, nb := 32, 8
	aD := matgen.Identity[float64](n)
	aD[20+20*n] = -3
	a := tile.FromColMajor(n, n, aD, n, nb)
	r := sched.New(2)
	defer r.Shutdown()
	err := core.Cholesky(r, a)
	pd, ok := err.(*lapack.NotPositiveDefiniteError)
	if !ok {
		t.Fatalf("expected NotPositiveDefiniteError, got %v", err)
	}
	if pd.Index != 20 {
		t.Errorf("index %d, want 20", pd.Index)
	}
}

func TestTilePosv(t *testing.T) {
	for name, mk := range schedulers(t) {
		rng := rand.New(rand.NewSource(5))
		n, nrhs, nb := 60, 5, 16
		aD := matgen.DiagDomSPD[float64](rng, n)
		xTrue := matgen.Dense[float64](rng, n, nrhs)
		bD := make([]float64, n*nrhs)
		blas.Gemm(blas.NoTrans, blas.NoTrans, n, nrhs, n, 1, aD, n, xTrue, n, 0, bD, n)
		a := tile.FromColMajor(n, n, aD, n, nb)
		b := tile.FromColMajor(n, nrhs, bD, n, nb)
		s, done := mk()
		if err := core.Posv(s, a, b); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		done()
		if d := maxAbsDiff(b.ToColMajor(), xTrue); d > 1e-9 {
			t.Errorf("%s: solution diff %g", name, d)
		}
	}
}

func luResidual(t *testing.T, n, nb int, mk func() (sched.Scheduler, func())) float64 {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(n*31 + nb)))
	aD := matgen.Dense[float64](rng, n, n)
	xTrue := matgen.Dense[float64](rng, n, 1)
	bD := make([]float64, n)
	blas.Gemv(blas.NoTrans, n, n, 1, aD, n, xTrue, 1, 0, bD, 1)
	a := tile.FromColMajor(n, n, aD, n, nb)
	b := tile.FromColMajor(n, 1, bD, n, nb)
	s, done := mk()
	defer done()
	if _, err := core.Gesv(s, a, b); err != nil {
		t.Fatalf("n=%d nb=%d: %v", n, nb, err)
	}
	x := b.ToColMajor()
	// Normwise backward-ish error: ‖x − x*‖ / (‖x*‖·n·ε·κ-ish slack).
	var diff, norm float64
	for i := range x {
		if d := math.Abs(x[i] - xTrue[i]); d > diff {
			diff = d
		}
		if v := math.Abs(xTrue[i]); v > norm {
			norm = v
		}
	}
	return diff / (norm + 1)
}

func TestTileLUSolve(t *testing.T) {
	for name, mk := range schedulers(t) {
		for _, d := range [][2]int{{1, 4}, {5, 4}, {16, 4}, {33, 8}, {64, 16}, {90, 32}} {
			if r := luResidual(t, d[0], d[1], mk); r > 1e-7 {
				t.Errorf("%s n=%d nb=%d: solution error %g", name, d[0], d[1], r)
			}
		}
	}
}

func TestTileLUForkJoinMatchesDataflow(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n, nb := 48, 16
	aD := matgen.Dense[float64](rng, n, n)
	a1 := tile.FromColMajor(n, n, aD, n, nb)
	a2 := tile.FromColMajor(n, n, aD, n, nb)
	rec1 := sched.NewRecorder()
	rec2 := sched.NewRecorder()
	if _, err := core.LU(rec1, a1); err != nil {
		t.Fatal(err)
	}
	if _, err := core.Factor(rec2, core.OpLU, a2, nil, true); err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(a1.ToColMajor(), a2.ToColMajor()); d != 0 {
		t.Errorf("fork-join and dataflow factors differ by %g", d)
	}
	// The fork-join graph must contain interior barriers; the dataflow
	// graph only the single trailing one from the final Wait.
	barriers := func(g *sched.Graph) (c int) {
		for _, n := range g.Nodes {
			if n.Barrier {
				c++
			}
		}
		return c
	}
	dfBarriers, fjBarriers := barriers(rec1.Graph()), barriers(rec2.Graph())
	if dfBarriers > 1 {
		t.Errorf("dataflow graph contains %d barriers", dfBarriers)
	}
	if fjBarriers <= 1 {
		t.Errorf("fork-join graph contains only %d barriers", fjBarriers)
	}
}

func TestTileLURectangular(t *testing.T) {
	// Tall matrix: factor and verify by solving with the square top? Use
	// reconstruction instead: apply the recorded transforms to the identity
	// to recover PA-like product is involved; instead verify the factor by
	// checking the solve path on a square embedding is exercised via Gesv
	// above. Here just ensure tall/wide factorizations run without panic.
	rng := rand.New(rand.NewSource(11))
	for _, d := range [][3]int{{40, 24, 8}, {24, 40, 8}, {33, 17, 16}} {
		m, n, nb := d[0], d[1], d[2]
		aD := matgen.Dense[float64](rng, m, n)
		a := tile.FromColMajor(m, n, aD, m, nb)
		rec := sched.NewRecorder()
		if _, err := core.LU(rec, a); err != nil {
			t.Fatalf("%dx%d: %v", m, n, err)
		}
	}
}

func qrResidualTile(t *testing.T, m, n, nb int, forkJoin bool, mk func() (sched.Scheduler, func())) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(m*100 + n + nb)))
	aD := matgen.Dense[float64](rng, m, n)
	a := tile.FromColMajor(m, n, aD, m, nb)
	s, done := mk()
	defer done()
	f, err := core.Factor(s, core.OpQR, a, nil, forkJoin)
	if err != nil {
		t.Fatal(err)
	}
	// Verify via Qᵀ·A₀ == R: apply Qᵀ to the original and compare with R.
	b := tile.FromColMajor(m, n, aD, m, nb)
	core.ApplyQT(s, f, b)
	s.Wait()
	qta := b.ToColMajor()
	fac := a.ToColMajor()
	// Upper triangle must match R; lower must be ~0.
	var diff, norm float64
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			v := qta[i+j*m]
			var want float64
			if i <= j {
				want = fac[i+j*m]
			}
			if d := math.Abs(v - want); d > diff {
				diff = d
			}
			if av := math.Abs(aD[i+j*m]); av > norm {
				norm = av
			}
		}
	}
	if diff > norm*float64(m+n)*0x1p-52*100 {
		t.Errorf("m=%d n=%d nb=%d forkJoin=%v: QᵀA vs R diff %g", m, n, nb, forkJoin, diff)
	}
}

func TestTileQR(t *testing.T) {
	for name, mk := range schedulers(t) {
		_ = name
		for _, d := range [][3]int{{8, 8, 4}, {16, 16, 4}, {33, 33, 8}, {64, 32, 16}, {40, 56, 8}, {70, 70, 32}} {
			qrResidualTile(t, d[0], d[1], d[2], false, mk)
		}
	}
}

func TestTileQRForkJoin(t *testing.T) {
	for _, mk := range schedulers(t) {
		qrResidualTile(t, 48, 48, 16, true, mk)
	}
}

func TestTileGels(t *testing.T) {
	for name, mk := range schedulers(t) {
		rng := rand.New(rand.NewSource(21))
		m, n, nb := 72, 24, 16
		aD := matgen.Dense[float64](rng, m, n)
		xTrue := matgen.Dense[float64](rng, n, 1)
		bD := make([]float64, m)
		blas.Gemv(blas.NoTrans, m, n, 1, aD, m, xTrue, 1, 0, bD, 1)
		a := tile.FromColMajor(m, n, aD, m, nb)
		b := tile.FromColMajor(m, 1, bD, m, nb)
		s, done := mk()
		core.Gels(s, a, b)
		done()
		x := b.ToColMajor()[:n]
		if d := maxAbsDiff(x, xTrue); d > 1e-9 {
			t.Errorf("%s: least-squares exact system diff %g", name, d)
		}
	}
}

// TestQRGelsBitwiseAcrossExecutors: every QR tile kernel is deterministic
// and the task graph fixes the order of the operations on each tile, so the
// factors of QR (dataflow and fork-join) and QRTree and the least-squares
// solutions of both orders are bit for bit the same on the recorder and on
// runtimes with 1 and 4 workers — for a tall least-squares problem with
// ragged edge tiles, for a wide factorization, and for TSQR (the tree on
// one tile column).
func TestQRGelsBitwiseAcrossExecutors(t *testing.T) {
	execs := schedulers(t)
	execs["forkjoin4"] = execs["runtime4"]
	for _, d := range [][4]int{{203, 77, 3, 24}, {60, 100, 0, 16}, {203, 17, 2, 26}} {
		m, n, nrhs, nb := d[0], d[1], d[2], d[3]
		rng := rand.New(rand.NewSource(int64(m + n)))
		aD := matgen.Dense[float64](rng, m, n)
		bD := matgen.Dense[float64](rng, m, max(nrhs, 1))
		for _, tree := range []bool{false, true} {
			var want [][]float64
			for _, name := range []string{"recorder", "runtime1", "runtime4", "forkjoin4"} {
				if tree && name == "forkjoin4" {
					continue // the tree order has no fork-join driver
				}
				s, done := execs[name]()
				a := tile.FromColMajor(m, n, aD, m, nb)
				b := tile.FromColMajor(m, max(nrhs, 1), bD, m, nb)
				var f *core.Factors[float64]
				var err error
				switch {
				case name == "forkjoin4":
					f, err = core.Factor(s, core.OpQR, a, nil, true)
					if nrhs > 0 {
						_ = core.Solve(s, f, b)
					}
				case tree && nrhs > 0:
					f, err = core.Factor(s, core.OpQRTree, a, b, false)
				case tree:
					f = core.QRTree(s, a)
				case nrhs > 0:
					f = core.Gels(s, a, b)
				default:
					f = core.QR(s, a)
				}
				done()
				if err != nil {
					t.Fatal(err)
				}
				got := [][]float64{a.ToColMajor(), f.T.ToColMajor(), b.ToColMajor(), nil}
				if tree {
					got[3] = f.T2.ToColMajor()
				}
				if want == nil {
					want = got
					continue
				}
				for k, what := range []string{"factored A", "T", "solution", "T2"} {
					for i := range got[k] {
						if math.Float64bits(got[k][i]) != math.Float64bits(want[k][i]) {
							t.Fatalf("%dx%d tree=%v: %s on %s differs from the recorder's at %d: %v vs %v",
								m, n, tree, what, name, i, got[k][i], want[k][i])
						}
					}
				}
			}
		}
	}
}

func TestCholeskyGraphShape(t *testing.T) {
	// For NT tile columns the Cholesky DAG has NT potrf, NT(NT-1)/2 trsm,
	// NT(NT-1)/2 syrk and NT(NT-1)(NT-2)/6 gemm tasks.
	n, nb := 64, 16 // NT = 4
	rng := rand.New(rand.NewSource(41))
	aD := matgen.DiagDomSPD[float64](rng, n)
	a := tile.FromColMajor(n, n, aD, n, nb)
	rec := sched.NewRecorder()
	if err := core.Cholesky(rec, a); err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, node := range rec.Graph().Nodes {
		counts[node.Name]++
	}
	nt := 4
	want := map[string]int{
		"potrf": nt,
		"trsm":  nt * (nt - 1) / 2,
		"syrk":  nt * (nt - 1) / 2,
		"gemm":  nt * (nt - 1) * (nt - 2) / 6,
	}
	for k, w := range want {
		if counts[k] != w {
			t.Errorf("%s count %d, want %d", k, counts[k], w)
		}
	}
}

func TestForkJoinGraphHasLowerParallelism(t *testing.T) {
	// The defining property the talk illustrates: at equal work, the
	// fork-join DAG's critical path is at least the dataflow DAG's.
	n, nb := 96, 16
	rng := rand.New(rand.NewSource(43))
	aD := matgen.DiagDomSPD[float64](rng, n)
	a1 := tile.FromColMajor(n, n, aD, n, nb)
	a2 := tile.FromColMajor(n, n, aD, n, nb)
	rec1 := sched.NewRecorder()
	rec2 := sched.NewRecorder()
	if err := core.Cholesky(rec1, a1); err != nil {
		t.Fatal(err)
	}
	if _, err := core.Factor(rec2, core.OpCholesky, a2, nil, true); err != nil {
		t.Fatal(err)
	}
	df, fj := rec1.Graph(), rec2.Graph()
	// Compare structure, not measured time: unit costs make the test
	// deterministic (measured µs-scale task costs are noise-dominated when
	// the host is loaded).
	for i := range df.Nodes {
		if !df.Nodes[i].Barrier {
			df.Nodes[i].Cost = 1
		}
	}
	for i := range fj.Nodes {
		if !fj.Nodes[i].Barrier {
			fj.Nodes[i].Cost = 1
		}
	}
	dfRes := trace.NewLog(sched.Simulate(df, 16)...).AnalyzeDAG()
	fjRes := trace.NewLog(sched.Simulate(fj, 16)...).AnalyzeDAG()
	if dfRes.Makespan > fjRes.Makespan {
		t.Errorf("dataflow makespan %g > fork-join %g", dfRes.Makespan, fjRes.Makespan)
	}
	if dfRes.TInf > fjRes.TInf {
		t.Errorf("dataflow critical path %g > fork-join %g", dfRes.TInf, fjRes.TInf)
	}
}

func TestTileCholeskyFloat32(t *testing.T) {
	// The tile algorithms are generic; exercise the float32 instantiation
	// end to end with a float32-scaled tolerance.
	rng := rand.New(rand.NewSource(55))
	n, nb := 64, 16
	aD := matgen.DiagDomSPD[float32](rng, n)
	a := tile.FromColMajor(n, n, aD, n, nb)
	r := sched.New(2)
	defer r.Shutdown()
	if err := core.Cholesky(r, a); err != nil {
		t.Fatal(err)
	}
	f := a.ToColMajor()
	l := make([]float32, n*n)
	for j := 0; j < n; j++ {
		for i := j; i < n; i++ {
			l[i+j*n] = f[i+j*n]
		}
	}
	recon := make([]float32, n*n)
	blas.Gemm(blas.NoTrans, blas.Trans, n, n, n, 1, l, n, l, n, 0, recon, n)
	var diff, norm float64
	for j := 0; j < n; j++ {
		for i := j; i < n; i++ {
			if d := math.Abs(float64(recon[i+j*n] - aD[i+j*n])); d > diff {
				diff = d
			}
			if v := math.Abs(float64(aD[i+j*n])); v > norm {
				norm = v
			}
		}
	}
	if diff > norm*float64(n)*0x1p-23*30 {
		t.Errorf("float32 tile Cholesky reconstruction diff %g", diff)
	}
}

func TestTileQRFloat32(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	m, n, nb := 48, 32, 16
	aD := matgen.Dense[float32](rng, m, n)
	a := tile.FromColMajor(m, n, aD, m, nb)
	rec := sched.NewRecorder()
	f := core.QR(rec, a)
	b := tile.FromColMajor(m, n, aD, m, nb)
	core.ApplyQT(rec, f, b)
	qta := b.ToColMajor()
	fac := a.ToColMajor()
	var diff, norm float64
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			var want float32
			if i <= j {
				want = fac[i+j*m]
			}
			if d := math.Abs(float64(qta[i+j*m] - want)); d > diff {
				diff = d
			}
			if v := math.Abs(float64(aD[i+j*m])); v > norm {
				norm = v
			}
		}
	}
	if diff > norm*float64(m+n)*0x1p-23*100 {
		t.Errorf("float32 tile QR QᵀA vs R diff %g", diff)
	}
}
