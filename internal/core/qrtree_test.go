package core_test

import (
	"math"
	"math/rand"
	"testing"

	"exadla/internal/blas"
	"exadla/internal/core"
	"exadla/internal/matgen"
	"exadla/internal/sched"
	"exadla/internal/tile"
	"exadla/internal/trace"
)

func qrTreeCheck(t *testing.T, m, n, nb int, mk func() (sched.Scheduler, func())) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(m*10 + n + nb)))
	aD := matgen.Dense[float64](rng, m, n)
	a := tile.FromColMajor(m, n, aD, m, nb)
	s, done := mk()
	defer done()
	f := core.QRTree(s, a)

	// Qᵀ·A₀ must equal [R; 0].
	b := tile.FromColMajor(m, n, aD, m, nb)
	core.ApplyQT(s, f, b)
	s.Wait()
	qta := b.ToColMajor()
	fac := a.ToColMajor()
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
		t.Errorf("m=%d n=%d nb=%d: tree QᵀA vs R diff %g", m, n, nb, diff)
	}
}

func TestTileQRTree(t *testing.T) {
	for _, mk := range schedulers(t) {
		for _, d := range [][3]int{{16, 16, 4}, {64, 16, 16}, {80, 32, 16}, {96, 48, 16}, {70, 30, 32}} {
			qrTreeCheck(t, d[0], d[1], d[2], mk)
		}
	}
}

func TestQRTreeMatchesFlatR(t *testing.T) {
	// R is unique up to row signs for a full-rank matrix: flat and tree
	// orders must produce the same |R|.
	rng := rand.New(rand.NewSource(1))
	m, n, nb := 96, 32, 16
	aD := matgen.Dense[float64](rng, m, n)
	aFlat := tile.FromColMajor(m, n, aD, m, nb)
	aTree := tile.FromColMajor(m, n, aD, m, nb)
	rec1, rec2 := sched.NewRecorder(), sched.NewRecorder()
	core.QR(rec1, aFlat)
	core.QRTree(rec2, aTree)
	fFlat := aFlat.ToColMajor()
	fTree := aTree.ToColMajor()
	for j := 0; j < n; j++ {
		for i := 0; i <= j; i++ {
			got := math.Abs(fTree[i+j*m])
			want := math.Abs(fFlat[i+j*m])
			if math.Abs(got-want) > 1e-10*(1+want) {
				t.Fatalf("|R| differs at (%d,%d): %v vs %v", i, j, got, want)
			}
		}
	}
}

func TestQRTreeShorterCriticalPath(t *testing.T) {
	// The point of the tree order: on tall tile counts the panel critical
	// path is logarithmic instead of linear. Compare recorded DAGs with a
	// unit-cost model (structure, not kernel speed).
	m, n, nb := 64*16, 64, 64 // 16 tile rows, 1 tile column
	rng := rand.New(rand.NewSource(2))
	aD := matgen.Dense[float64](rng, m, n)

	depth := func(factor func(s sched.Scheduler, a *tile.Matrix[float64])) float64 {
		a := tile.FromColMajor(m, n, aD, m, nb)
		rec := sched.NewRecorder()
		factor(rec, a)
		g := rec.Graph()
		// Unit costs: structural critical path in "kernel steps".
		for i := range g.Nodes {
			if !g.Nodes[i].Barrier {
				g.Nodes[i].Cost = 1
			}
		}
		return trace.NewLog(sched.Simulate(g, 1)...).AnalyzeDAG().TInf
	}
	flat := depth(func(s sched.Scheduler, a *tile.Matrix[float64]) { core.QR(s, a) })
	tree := depth(func(s sched.Scheduler, a *tile.Matrix[float64]) { core.QRTree(s, a) })
	if tree >= flat {
		t.Errorf("tree critical path %v not shorter than flat %v", tree, flat)
	}
	// 16 tile rows: flat chain ≈ 16 merges; tree ≈ 4 levels.
	if tree > flat/2 {
		t.Errorf("tree path %v not ≪ flat path %v", tree, flat)
	}
}

func TestGelsTree(t *testing.T) {
	for name, mk := range schedulers(t) {
		rng := rand.New(rand.NewSource(3))
		m, n, nb := 128, 32, 16
		aD := matgen.Dense[float64](rng, m, n)
		xTrue := matgen.Dense[float64](rng, n, 1)
		bD := make([]float64, m)
		blas.Gemv(blas.NoTrans, m, n, 1, aD, m, xTrue, 1, 0, bD, 1)
		a := tile.FromColMajor(m, n, aD, m, nb)
		b := tile.FromColMajor(m, 1, bD, m, nb)
		s, done := mk()
		if _, err := core.Factor(s, core.OpQRTree, a, b, false); err != nil {
			t.Fatal(err)
		}
		done()
		x := b.ToColMajor()[:n]
		for i := range x {
			if math.Abs(x[i]-xTrue[i]) > 1e-9 {
				t.Fatalf("%s: x[%d] = %v want %v", name, i, x[i], xTrue[i])
			}
		}
	}
}

func TestTreePairsCoverAllRows(t *testing.T) {
	// Every row below k must be eliminated exactly once as an i2, into a
	// row above it that is k or itself eliminated later.
	for _, c := range [][2]int{{0, 1}, {0, 2}, {0, 7}, {2, 9}, {3, 16}} {
		k, mt := c[0], c[1]
		eliminated := map[int]int{}
		for _, st := range core.Program(core.OpQRTree, mt, k+1, k) {
			if st.Kind != "ttqrt" {
				continue
			}
			_, w := st.Accesses()
			i1, i2 := w[0][0], w[1][0]
			if w[0][1] != k || w[1][1] != k || i1 < k || i2 <= i1 || i2 >= mt || i2 != st.I {
				t.Fatalf("k=%d mt=%d: bad ttqrt %+v writing %v", k, mt, st, w)
			}
			if eliminated[i1] != 0 {
				t.Fatalf("k=%d mt=%d: row %d merged into after its own elimination", k, mt, i1)
			}
			eliminated[i2]++
		}
		for i := k + 1; i < mt; i++ {
			if eliminated[i] != 1 {
				t.Fatalf("k=%d mt=%d: row %d eliminated %d times", k, mt, i, eliminated[i])
			}
		}
		if eliminated[k] != 0 {
			t.Fatalf("k=%d mt=%d: root row eliminated", k, mt)
		}
	}
}
