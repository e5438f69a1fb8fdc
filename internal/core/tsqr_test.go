package core_test

import (
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

// TSQR is QRTree on a single tile column: nblocks row blocks are tiles of
// ⌈m/nblocks⌉ rows (at least n), so R is the top n×n of tile (0, 0).

func tsqrTiles(m, n int, a []float64, nblocks int) *tile.Matrix[float64] {
	return tile.FromColMajor(m, n, a, m, max(n, (m+nblocks-1)/nblocks))
}

func tsqrR(a *tile.Matrix[float64]) []float64 {
	r := make([]float64, a.N*a.N)
	lapack.Lacpy(blas.Upper, a.N, a.N, a.Tile(0, 0), a.TileRows(0), r, a.N)
	return r
}

func TestTSQRMatchesHouseholderR(t *testing.T) {
	// R from TSQR equals R from flat Householder QR up to row signs.
	rng := rand.New(rand.NewSource(1))
	for _, nblocks := range []int{1, 2, 3, 4, 7, 16} {
		m, n := 400, 12
		aD := matgen.Dense[float64](rng, m, n)
		a := tsqrTiles(m, n, aD, nblocks)
		if a.NT != 1 {
			t.Fatalf("nblocks=%d: %d tile columns", nblocks, a.NT)
		}
		r := sched.New(4)
		core.QRTree(r, a)
		r.Shutdown()
		rTSQR := tsqrR(a)

		aCopy := append([]float64(nil), aD...)
		tau := make([]float64, n)
		lapack.Geqrf(m, n, aCopy, m, tau)
		for j := 0; j < n; j++ {
			for i := 0; i <= j; i++ {
				got := math.Abs(rTSQR[i+j*n])
				want := math.Abs(aCopy[i+j*m])
				if math.Abs(got-want) > 1e-10*(1+want) {
					t.Fatalf("nblocks=%d: |R[%d,%d]| = %v, want %v", nblocks, i, j, got, want)
				}
			}
		}
	}
}

func TestTSQRDeterministicAcrossWorkers(t *testing.T) {
	// The reduction tree is fixed, so results must be bitwise identical
	// regardless of worker count.
	rng := rand.New(rand.NewSource(2))
	m, n := 300, 8
	aD := matgen.Dense[float64](rng, m, n)
	var rs [][]float64
	for _, workers := range []int{1, 2, 4} {
		a := tsqrTiles(m, n, aD, 8)
		r := sched.New(workers)
		core.QRTree(r, a)
		r.Shutdown()
		rs = append(rs, a.ToColMajor())
	}
	for w := 1; w < len(rs); w++ {
		for i := range rs[0] {
			if math.Float64bits(rs[0][i]) != math.Float64bits(rs[w][i]) {
				t.Fatalf("factor differs across worker counts at %d", i)
			}
		}
	}
}

func TestTSQRNormPreservation(t *testing.T) {
	// Qᵀ is orthogonal: ‖Qᵀb‖ = ‖b‖, so its top n entries have norm ≤ ‖b‖.
	rng := rand.New(rand.NewSource(3))
	m, n := 500, 10
	aD := matgen.Dense[float64](rng, m, n)
	bD := matgen.Dense[float64](rng, m, 1)
	a := tsqrTiles(m, n, aD, 6)
	b := tile.FromColMajor(m, 1, bD, m, a.NB)
	r := sched.New(2)
	f := core.QRTree(r, a)
	core.ApplyQT(r, f, b)
	r.Wait()
	r.Shutdown()
	c := b.ToColMajor()
	nb, nc := blas.Nrm2(m, bD, 1), blas.Nrm2(m, c, 1)
	if math.Abs(nc-nb) > 1e-12*nb {
		t.Errorf("‖Qᵀb‖ = %v, ‖b‖ = %v", nc, nb)
	}
	if blas.Nrm2(n, c, 1) > nb*(1+1e-12) {
		t.Error("Qᵀb's top n entries have a larger norm than b")
	}
}

func TestTSQRWithRecorder(t *testing.T) {
	// The recorder exposes the task graph: with 8 blocks there are 8 geqrt
	// leaves and 7 ttqrt merges, and the critical path spans one leaf plus
	// log₂(8) = 3 merges.
	rng := rand.New(rand.NewSource(7))
	m, n := 320, 8
	a := tsqrTiles(m, n, matgen.Dense[float64](rng, m, n), 8)
	rec := sched.NewRecorder()
	core.QRTree(rec, a)
	g := rec.Graph()
	counts := map[string]int{}
	for i, node := range g.Nodes {
		if !node.Barrier {
			counts[node.Name]++
			g.Nodes[i].Cost = 1
		}
	}
	if counts["geqrt"] != 8 || counts["ttqrt"] != 7 || len(counts) != 2 {
		t.Errorf("task counts %v, want 8 geqrt and 7 ttqrt", counts)
	}
	if cp := trace.NewLog(sched.Simulate(g, 1)...).AnalyzeDAG().TInf; cp != 4 {
		t.Errorf("unit-cost critical path %v, want 4", cp)
	}
}
