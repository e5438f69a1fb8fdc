package autotune

import (
	"os"
	"path/filepath"
	"testing"
)

func TestSearchFindsMinimum(t *testing.T) {
	// Synthetic U-shaped cost: minimum at 64.
	cost := func(p int) float64 {
		d := float64(p - 64)
		return 1 + d*d/1000
	}
	res := Search([]int{16, 32, 64, 128, 256}, 3, cost)
	if res.Best != 64 {
		t.Errorf("best %d, want 64", res.Best)
	}
	if len(res.Table) != 5 {
		t.Errorf("table has %d entries", len(res.Table))
	}
}

func TestSearchMinOfReps(t *testing.T) {
	// Noisy measurements: later reps are faster; min-of-reps must keep the
	// minimum.
	calls := map[int]int{}
	measure := func(p int) float64 {
		calls[p]++
		return float64(10 - calls[p]) // 9, 8, 7...
	}
	res := Search([]int{1}, 4, measure)
	if res.Table[0].Seconds != 6 {
		t.Errorf("min-of-reps %v, want 6", res.Table[0].Seconds)
	}
}

func TestSearchPrunes(t *testing.T) {
	calls := map[int]int{}
	measure := func(p int) float64 {
		calls[p]++
		if p == 999 {
			return 100 // hopeless candidate
		}
		return 1
	}
	res := Search([]int{1, 999}, 5, measure)
	if calls[999] != 1 {
		t.Errorf("hopeless candidate measured %d times, want 1", calls[999])
	}
	if res.Best != 1 {
		t.Errorf("best %d", res.Best)
	}
	var pruned bool
	for _, m := range res.Table {
		if m.Param == 999 && m.Pruned {
			pruned = true
		}
	}
	if !pruned {
		t.Error("pruned candidate not marked")
	}
}

func TestSearchSkipsInvalid(t *testing.T) {
	measure := func(p int) float64 {
		if p == 7 {
			return -1 // invalid parameter
		}
		return float64(p)
	}
	res := Search([]int{7, 3}, 1, measure)
	if res.Best != 3 {
		t.Errorf("best %d, want 3", res.Best)
	}
	if len(res.Table) != 1 {
		t.Errorf("invalid candidate appears in table")
	}
}

func TestSearchEmptyCandidates(t *testing.T) {
	res := Search(nil, 3, func(int) float64 { return 1 })
	if res.Best != -1 {
		t.Errorf("best %d for empty candidates", res.Best)
	}
}

func TestTableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tune.json")
	tab := NewTable()
	tab.Set(Key("cholesky", 1024, 4), 96)
	tab.Set(Key("qr", 512, 2), 64)
	if err := tab.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := loaded.Lookup(Key("cholesky", 1024, 4)); !ok || v != 96 {
		t.Errorf("lookup: %d %v", v, ok)
	}
	if len(loaded.Entries) != 2 {
		t.Errorf("entries: %v", loaded.Entries)
	}
}

func TestLoadMissingFile(t *testing.T) {
	tab, err := Load(filepath.Join(t.TempDir(), "nope.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Entries) != 0 {
		t.Error("missing file should load empty")
	}
}

func TestLoadCorruptFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Error("corrupt file should error")
	}
}

func TestTimeMeasures(t *testing.T) {
	s := Time(func() {
		x := 0.0
		for i := 0; i < 10000; i++ {
			x += float64(i)
		}
		_ = x
	})
	if s < 0 {
		t.Error("negative time")
	}
}

func TestGlobalKey(t *testing.T) {
	got := GlobalKey("gemm.mr")
	if got != "global/gemm.mr" {
		t.Fatalf("GlobalKey = %q", got)
	}
	// Global keys must round-trip through the table like any other key.
	tb := NewTable()
	tb.Set(got, 8)
	if v, ok := tb.Lookup(GlobalKey("gemm.mr")); !ok || v != 8 {
		t.Fatalf("Lookup(global key) = %d, %v", v, ok)
	}
}
