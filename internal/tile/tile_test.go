package tile

import (
	"math/rand"
	"testing"
	"testing/quick"

	"exadla/internal/matgen"
)

func TestRoundTripColMajor(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, d := range [][3]int{{1, 1, 4}, {4, 4, 4}, {5, 3, 2}, {10, 10, 3}, {100, 37, 16}, {64, 64, 64}, {65, 65, 64}} {
		m, n, nb := d[0], d[1], d[2]
		src := matgen.Dense[float64](rng, m, n)
		a := FromColMajor(m, n, src, m, nb)
		out := a.ToColMajor()
		for i := range src {
			if src[i] != out[i] {
				t.Fatalf("m=%d n=%d nb=%d: round trip differs at %d", m, n, nb, i)
			}
		}
	}
}

func TestTileDims(t *testing.T) {
	a := New[float64](10, 7, 4)
	if a.MT != 3 || a.NT != 2 {
		t.Fatalf("MT=%d NT=%d", a.MT, a.NT)
	}
	wantRows := []int{4, 4, 2}
	wantCols := []int{4, 3}
	for i, w := range wantRows {
		if a.TileRows(i) != w {
			t.Errorf("TileRows(%d)=%d want %d", i, a.TileRows(i), w)
		}
	}
	for j, w := range wantCols {
		if a.TileCols(j) != w {
			t.Errorf("TileCols(%d)=%d want %d", j, a.TileCols(j), w)
		}
	}
	if len(a.Tile(2, 1)) != 2*3 {
		t.Errorf("corner tile len %d", len(a.Tile(2, 1)))
	}
}

func TestAtSetConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, n := 1+rng.Intn(30), 1+rng.Intn(30)
		nb := 1 + rng.Intn(10)
		a := New[float64](m, n, nb)
		ref := make([]float64, m*n)
		for k := 0; k < 50; k++ {
			i, j := rng.Intn(m), rng.Intn(n)
			v := rng.NormFloat64()
			a.Set(i, j, v)
			ref[i+j*m] = v
		}
		out := a.ToColMajor()
		for i := range ref {
			if out[i] != ref[i] {
				return false
			}
		}
		for k := 0; k < 50; k++ {
			i, j := rng.Intn(m), rng.Intn(n)
			if a.At(i, j) != ref[i+j*m] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(2))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestHandlesDistinguishTilesAndMatrices(t *testing.T) {
	a := New[float64](8, 8, 4)
	b := New[float64](8, 8, 4)
	if a.Handle(0, 0) == a.Handle(0, 1) {
		t.Error("distinct tiles share a handle")
	}
	if a.Handle(0, 0) != a.Handle(0, 0) {
		t.Error("same tile's handle not stable")
	}
	if a.Handle(0, 0) == b.Handle(0, 0) {
		t.Error("tiles of distinct matrices share a handle")
	}
}

func TestSetTile(t *testing.T) {
	a := New[float64](6, 6, 4)
	repl := make([]float64, a.TileRows(1)*a.TileCols(1))
	for i := range repl {
		repl[i] = 7
	}
	a.SetTile(1, 1, repl)
	if a.At(5, 5) != 7 {
		t.Error("SetTile contents not visible")
	}
	defer func() {
		if recover() == nil {
			t.Error("SetTile with wrong size must panic")
		}
	}()
	a.SetTile(0, 0, make([]float64, 3))
}

func TestDeferredFuncFillsEachTileOnce(t *testing.T) {
	calls := make(map[[2]int]int)
	a := DeferredFunc(7, 5, 3, func(i, j int, dst []float32) {
		calls[[2]int{i, j}]++
		for k := range dst {
			if dst[k] != 0 {
				t.Fatalf("tile (%d,%d) handed over unzeroed", i, j)
			}
			dst[k] = float32(10*i + j)
		}
	})
	a.Fill()
	if len(calls) != a.MT*a.NT {
		t.Fatalf("%d tiles filled, want %d", len(calls), a.MT*a.NT)
	}
	for c, n := range calls {
		if n != 1 {
			t.Errorf("tile %v filled %d times", c, n)
		}
	}
	for j := range 5 {
		for i := range 7 {
			if got, want := a.At(i, j), float32(10*(i/3)+j/3); got != want {
				t.Fatalf("(%d,%d) = %v, want %v", i, j, got, want)
			}
		}
	}
	if a.Fills() != nil {
		t.Error("a filled matrix still owes fills")
	}
	defer func() {
		if recover() == nil {
			t.Error("Assemble over a fill must panic")
		}
	}()
	DeferredFunc(2, 2, 2, func(int, int, []float64) {}).Assemble([][]float64{make([]float64, 4)})
}
