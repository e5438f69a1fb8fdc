package ft_test

import (
	"math"
	"math/rand"
	"testing"

	"exadla/internal/blas"
	"exadla/internal/ft"
	"exadla/internal/matgen"
)

func TestProtectedGemmNoFault(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m, n, k := 30, 20, 25
	a := matgen.Dense[float64](rng, m, k)
	b := matgen.Dense[float64](rng, k, n)
	p := ft.Gemm(m, n, k, a, m, b, k)
	// Result must equal a plain Gemm.
	want := make([]float64, m*n)
	blas.Gemm(blas.NoTrans, blas.NoTrans, m, n, k, 1, a, m, b, k, 0, want, m)
	for i := range want {
		if math.Abs(p.C[i]-want[i]) > 1e-10 {
			t.Fatalf("protected product differs at %d", i)
		}
	}
	if faults := p.Verify(); len(faults) != 0 {
		t.Errorf("false positives: %v", faults)
	}
}

func TestProtectedGemmDetectLocateCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m, n, k := 40, 30, 20
	a := matgen.Dense[float64](rng, m, k)
	b := matgen.Dense[float64](rng, k, n)
	for trial := 0; trial < 20; trial++ {
		p := ft.Gemm(m, n, k, a, m, b, k)
		clean := append([]float64(nil), p.C...)
		inj := ft.NewInjector(int64(trial))
		idx := inj.RandomIndex(m, n)
		injected := inj.AddNoise(p.C, idx, m, 100+rng.Float64())
		faults := p.Verify()
		if len(faults) != 1 {
			t.Fatalf("trial %d: detected %d faults, want 1", trial, len(faults))
		}
		f := faults[0]
		if f.Row != injected.Row || f.Col != injected.Col {
			t.Fatalf("trial %d: located (%d,%d), injected (%d,%d)",
				trial, f.Row, f.Col, injected.Row, injected.Col)
		}
		p.Correct(faults)
		for i := range clean {
			if math.Abs(p.C[i]-clean[i]) > 1e-8 {
				t.Fatalf("trial %d: correction imperfect at %d: %g vs %g",
					trial, i, p.C[i], clean[i])
			}
		}
	}
}

func TestProtectedGemmBitFlip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m, n, k := 24, 24, 24
	a := matgen.Dense[float64](rng, m, k)
	b := matgen.Dense[float64](rng, k, n)
	detected := 0
	const trials = 30
	for trial := 0; trial < trials; trial++ {
		p := ft.Gemm(m, n, k, a, m, b, k)
		inj := ft.NewInjector(int64(100 + trial))
		idx := inj.RandomIndex(m, n)
		f := inj.FlipBit(p.C, idx, m)
		faults := p.Verify()
		if math.Abs(f.Delta) < 1e-6 {
			continue // flip below detection threshold; not counted
		}
		if len(faults) == 1 && faults[0].Row == f.Row && faults[0].Col == f.Col {
			detected++
		}
		p.Correct(faults)
	}
	if detected < trials*2/3 {
		t.Errorf("located only %d/%d significant bit flips", detected, trials)
	}
}

func TestProtectedGemmMultiColumnFaults(t *testing.T) {
	// One fault per column in several columns: all must be found.
	rng := rand.New(rand.NewSource(4))
	m, n, k := 20, 10, 15
	a := matgen.Dense[float64](rng, m, k)
	b := matgen.Dense[float64](rng, k, n)
	p := ft.Gemm(m, n, k, a, m, b, k)
	clean := append([]float64(nil), p.C...)
	inj := ft.NewInjector(9)
	for _, col := range []int{1, 4, 7} {
		inj.AddNoise(p.C, col*m+col%m, m, 50)
	}
	faults := p.Verify()
	if len(faults) != 3 {
		t.Fatalf("detected %d faults, want 3", len(faults))
	}
	p.Correct(faults)
	for i := range clean {
		if math.Abs(p.C[i]-clean[i]) > 1e-8 {
			t.Fatal("multi-fault correction failed")
		}
	}
}

// TestProtectedGemmUnlocatable pins Verify and Correct to the tile
// verifier's rule for faults outside the single-error model: two
// corruptions in one column (whose weighted ratio points outside C) and a
// NaN are reported with Row = -1, and Correct leaves C as it was rather
// than editing an innocent entry.
func TestProtectedGemmUnlocatable(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m, n, k := 6, 3, 4
	a := matgen.Dense[float64](rng, m, k)
	b := matgen.Dense[float64](rng, k, n)
	p := ft.Gemm(m, n, k, a, m, b, k)
	p.C[0+1*m] += 2
	p.C[3+1*m]--
	p.C[2+0*m] = math.NaN()
	before := append([]float64(nil), p.C...)
	faults := p.Verify()
	if len(faults) != 2 {
		t.Fatalf("detected %v, want a fault in columns 0 and 1", faults)
	}
	for _, f := range faults {
		if f.Row != -1 {
			t.Errorf("fault %v located at row %d, want unlocatable (-1)", f, f.Row)
		}
	}
	if c := p.Correct(faults); c != 0 {
		t.Errorf("Correct repaired %d entries, want 0", c)
	}
	for i := range before {
		if math.Float64bits(p.C[i]) != math.Float64bits(before[i]) {
			t.Errorf("Correct changed C[%d] from %g to %g", i, before[i], p.C[i])
		}
	}
}

func TestInjectorRecordsFaults(t *testing.T) {
	inj := ft.NewInjector(1)
	data := []float64{1, 2, 3, 4}
	f := inj.FlipBit(data, 2, 2)
	if len(inj.Injected) != 1 {
		t.Fatal("fault not recorded")
	}
	if f.Row != 0 || f.Col != 1 {
		t.Errorf("fault coordinates (%d,%d)", f.Row, f.Col)
	}
	if data[2] == 3 {
		t.Error("bit flip did not change the value")
	}
	if math.IsNaN(data[2]) || math.IsInf(data[2], 0) {
		t.Error("bit flip produced non-finite value")
	}
}
