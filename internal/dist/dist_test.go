package dist_test

import (
	"math/rand"
	"testing"

	"exadla/internal/core"
	"exadla/internal/dist"
	"exadla/internal/ft"
	"exadla/internal/matgen"
	"exadla/internal/sched"
	"exadla/internal/tile"
)

func choleskyGraph(n, nb int) (*sched.Graph, *tile.Matrix[float64]) {
	rng := rand.New(rand.NewSource(1))
	aD := matgen.DiagDomSPD[float64](rng, n)
	a := tile.FromColMajor(n, n, aD, n, nb)
	rec := sched.NewRecorder()
	if err := core.Cholesky(rec, a); err != nil {
		panic(err)
	}
	return rec.Graph(), a
}

func TestSingleProcessNoComm(t *testing.T) {
	g, a := choleskyGraph(64, 16)
	stats := dist.Count(g, 1, dist.BlockCyclic(a, 1, 1))
	if stats.Messages != 0 || stats.Words != 0 {
		t.Errorf("single process moved data: %v", stats)
	}
	if stats.RemoteTasks != 0 {
		t.Errorf("remote tasks on one process: %d", stats.RemoteTasks)
	}
}

func TestCommGrowsThenAmortizes(t *testing.T) {
	// More processes → more remote operands, but words moved per process
	// must shrink (the point of the 2D distribution).
	g, a := choleskyGraph(128, 16)
	prevWords := 0
	for _, pq := range [][2]int{{1, 2}, {2, 2}, {2, 4}, {4, 4}} {
		p, q := pq[0], pq[1]
		stats := dist.Count(g, p*q, dist.BlockCyclic(a, p, q))
		if stats.Words <= prevWords {
			// Total comm should grow with process count for fixed n.
			t.Errorf("P=%d: words %d not above previous %d", p*q, stats.Words, prevWords)
		}
		prevWords = stats.Words
	}
}

func TestBlockCyclicPlacement(t *testing.T) {
	a := tile.New[float64](64, 64, 16) // 4×4 tiles
	place := dist.BlockCyclic(a, 2, 2)
	// Tile (0,0) → proc 0; (0,1) → 1; (1,0) → 2; (1,1) → 3; (2,2) → 0.
	cases := []struct{ i, j, proc int }{
		{0, 0, 0}, {0, 1, 1}, {1, 0, 2}, {1, 1, 3}, {2, 2, 0}, {3, 1, 3},
	}
	for _, c := range cases {
		proc, words := place(a.Handle(c.i, c.j))
		if proc != c.proc {
			t.Errorf("tile (%d,%d) on proc %d, want %d", c.i, c.j, proc, c.proc)
		}
		if words != 16*16 {
			t.Errorf("tile (%d,%d) words %d", c.i, c.j, words)
		}
	}
}

func TestForeignHandlesAreFree(t *testing.T) {
	a := tile.New[float64](32, 32, 16)
	b := tile.New[float64](32, 32, 16)
	place := dist.BlockCyclic(a, 2, 2)
	if _, words := place(b.Handle(0, 0)); words != 0 {
		t.Error("foreign matrix handle has nonzero size")
	}
	if _, words := place("not-a-tile"); words != 0 {
		t.Error("non-tile handle has nonzero size")
	}
}

func TestMergePlacements(t *testing.T) {
	a := tile.New[float64](32, 32, 16)
	b := tile.New[float64](32, 32, 16)
	place := dist.Merge(dist.BlockCyclic(a, 2, 1), dist.BlockCyclic(b, 1, 2))
	if proc, words := place(a.Handle(1, 0)); proc != 1 || words == 0 {
		t.Errorf("a(1,0): proc=%d words=%d", proc, words)
	}
	if proc, words := place(b.Handle(0, 1)); proc != 1 || words == 0 {
		t.Errorf("b(0,1): proc=%d words=%d", proc, words)
	}
}

func TestTreeQRMovesFewerPanelWords(t *testing.T) {
	// On a 1D process column (each tile row its own process), the flat
	// chain ships the evolving R through every merge serially from the
	// diagonal owner; the tree's pairwise merges halve the R traffic each
	// round. Both must beat a naive expectation and tree ≤ flat.
	m, n, nb := 16*32, 32, 32 // 16×1 tiles
	rng := rand.New(rand.NewSource(2))
	aD := matgen.Dense[float64](rng, m, n)

	run := func(tree bool) dist.CommStats {
		a := tile.FromColMajor(m, n, aD, m, nb)
		rec := sched.NewRecorder()
		var f *core.Factors[float64]
		if tree {
			f = core.QRTree(rec, a)
		} else {
			f = core.QR(rec, a)
		}
		place := dist.Merge(
			dist.BlockCyclic(a, 16, 1),
			dist.BlockCyclic(f.T, 16, 1),
			func() dist.Placement {
				if f.T2 != nil {
					return dist.BlockCyclic(f.T2, 16, 1)
				}
				return func(sched.Handle) (int, int) { return 0, 0 }
			}(),
		)
		return dist.Count(rec.Graph(), 16, place)
	}
	flat := run(false)
	tr := run(true)
	if flat.Words == 0 || tr.Words == 0 {
		t.Fatalf("degenerate counts: flat=%v tree=%v", flat, tr)
	}
	if tr.Words > flat.Words {
		t.Errorf("tree moved more words (%d) than flat (%d)", tr.Words, flat.Words)
	}
}

func TestCommDepthTreeBeatsFlat(t *testing.T) {
	m, n, nb := 16*32, 32, 32
	rng := rand.New(rand.NewSource(3))
	aD := matgen.Dense[float64](rng, m, n)
	depth := func(tree bool) int {
		a := tile.FromColMajor(m, n, aD, m, nb)
		rec := sched.NewRecorder()
		var f *core.Factors[float64]
		if tree {
			f = core.QRTree(rec, a)
		} else {
			f = core.QR(rec, a)
		}
		places := []dist.Placement{dist.BlockCyclic(a, 16, 1), dist.BlockCyclic(f.T, 16, 1)}
		if f.T2 != nil {
			places = append(places, dist.BlockCyclic(f.T2, 16, 1))
		}
		return dist.CommDepth(rec.Graph(), dist.Merge(places...))
	}
	flat, tr := depth(false), depth(true)
	if tr >= flat {
		t.Errorf("tree comm depth %d not below flat %d", tr, flat)
	}
	if tr > flat/2 {
		t.Errorf("tree depth %d not ≪ flat depth %d", tr, flat)
	}
}

func TestCommDepthZeroOnOneProcess(t *testing.T) {
	g, a := choleskyGraph(64, 16)
	if d := dist.CommDepth(g, dist.BlockCyclic(a, 1, 1)); d != 0 {
		t.Errorf("single-process comm depth %d", d)
	}
}

func TestParityPlacement(t *testing.T) {
	a := tile.New[float64](64, 64, 16) // 4×4 tiles
	e := ft.NewRowErasure(a, nil)
	place := dist.ParityPlacement(a.NT, 2, 2)
	// The checksum column sits at column index nt=4, so on a 2×2 grid row
	// i's parity lives on process (i mod 2)·2 + (4 mod 2) — the grid column
	// that would hold tile (i, 4).
	for _, c := range []struct{ row, proc int }{{0, 0}, {1, 2}, {2, 0}, {3, 2}} {
		proc, words := place(e.RowHandle(c.row))
		if proc != c.proc {
			t.Errorf("parity row %d on proc %d, want %d", c.row, proc, c.proc)
		}
		if words != 16*16 {
			t.Errorf("parity row %d words %d, want 256", c.row, words)
		}
	}
	// Matrix tiles are not the parity placement's business.
	if _, words := place(a.Handle(0, 0)); words != 0 {
		t.Error("matrix tile handle billed by parity placement")
	}
}

// TestParityCommitTrafficCounted replays a resilient Cholesky with erasure
// armed: every commit ships a finalized tile to the checksum column and a
// reconstruction pulls the parity back, traffic only visible once the
// parity handles are placed. The plain block-cyclic placement must miss
// it, the merged one must bill it.
func TestParityCommitTrafficCounted(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n, nb := 128, 16
	aD := matgen.DiagDomSPD[float64](rng, n)
	a := tile.FromColMajor(n, n, aD, n, nb)
	rec := sched.NewRecorder()
	_, err := core.Protect(rec, core.OpCholesky, a, nil, &core.FTOptions{
		Erasure:   true,
		LoseTiles: []core.TileLoss{{Step: 2, I: 3, J: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	g := rec.Graph()

	// Without the parity placement the reconstruction looks free: its only
	// placed operand is the tile it rebuilds, which is its own home. (The
	// commit tasks still show traffic — their unplaced parity output
	// defaults them to process 0, which is exactly the mis-accounting
	// ParityPlacement fixes.)
	plain := dist.Count(g, 4, dist.BlockCyclic(a, 2, 2))
	if plain.ByKernel["reconstruct"] != 0 {
		t.Fatalf("plain placement billed reconstruction traffic: %v", plain.ByKernel)
	}

	merged := dist.Count(g, 4, dist.Merge(
		dist.BlockCyclic(a, 2, 2), dist.ParityPlacement(a.NT, 2, 2)))
	if merged.ByKernel["commit"] == 0 {
		t.Error("merged placement bills no commit traffic")
	}
	if merged.ByKernel["reconstruct"] == 0 {
		t.Error("merged placement bills no reconstruction traffic")
	}
	// The erasure scheme's traffic is a real surcharge over an unprotected
	// factorization of the same matrix on the same grid.
	clean, ca := choleskyGraph(n, nb)
	cleanStats := dist.Count(clean, 4, dist.BlockCyclic(ca, 2, 2))
	if merged.Words <= cleanStats.Words {
		t.Errorf("erasure comm bill %d not above unprotected %d", merged.Words, cleanStats.Words)
	}
}
