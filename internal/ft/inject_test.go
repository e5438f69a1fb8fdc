package ft_test

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"exadla/internal/ft"
	"exadla/internal/matgen"
)

// TestInjectorDeterministic: the injector is a seeded stream — two injectors
// with the same seed driven through the same call sequence must corrupt the
// same locations with the same deltas, so every fault experiment replays.
func TestInjectorDeterministic(t *testing.T) {
	const n, trials = 32, 50
	rng := rand.New(rand.NewSource(11))
	orig := matgen.Dense[float64](rng, n, n)

	run := func(seed int64) ([]ft.Fault, []float64) {
		data := append([]float64(nil), orig...)
		inj := ft.NewInjector(seed)
		for i := 0; i < trials; i++ {
			switch i % 3 {
			case 0:
				inj.FlipBit(data, inj.RandomIndex(n, n), n)
			case 1:
				inj.AddNoise(data, inj.RandomLowerIndex(n), n, 5)
			case 2:
				inj.RandomIndex(n, n) // draw without corrupting
			}
		}
		return inj.Injected, data
	}

	fa, da := run(7)
	fb, db := run(7)
	if len(fa) != len(fb) {
		t.Fatalf("same seed, different fault counts: %d vs %d", len(fa), len(fb))
	}
	for i := range fa {
		if fa[i] != fb[i] {
			t.Fatalf("fault %d differs: %v vs %v", i, fa[i], fb[i])
		}
	}
	for i := range da {
		if da[i] != db[i] {
			t.Fatalf("same seed, corrupted data differs at %d", i)
		}
	}
	fc, _ := run(8)
	same := true
	for i := range fa {
		if fa[i] != fc[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical fault sequences")
	}
}

// TestFlipBitLocationAndWidth checks the documented fault model: exactly one
// element changes, by exactly one bit in positions 30..51 of its IEEE-754
// representation (or the bit-30 retry), and the recorded Fault names the
// element in (row, col) coordinates of the given leading dimension.
func TestFlipBitLocationAndWidth(t *testing.T) {
	const m, ncols = 13, 7 // ld deliberately != square
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 200; trial++ {
		data := matgen.Dense[float64](rng, m, ncols)
		clean := append([]float64(nil), data...)
		inj := ft.NewInjector(int64(trial))
		idx := inj.RandomIndex(m, ncols)
		f := inj.FlipBit(data, idx, m)

		if f.Row != idx%m || f.Col != idx/m {
			t.Fatalf("trial %d: fault at (%d,%d), want (%d,%d)",
				trial, f.Row, f.Col, idx%m, idx/m)
		}
		for i := range data {
			if i != idx && data[i] != clean[i] {
				t.Fatalf("trial %d: collateral damage at %d", trial, i)
			}
		}
		if data[idx] == clean[idx] {
			t.Fatalf("trial %d: value unchanged", trial)
		}
		if math.IsNaN(data[idx]) || math.IsInf(data[idx], 0) {
			t.Fatalf("trial %d: non-finite corruption %g", trial, data[idx])
		}
		if got, want := f.Delta, data[idx]-clean[idx]; got != want {
			t.Fatalf("trial %d: delta %g, want %g", trial, got, want)
		}
		x := math.Float64bits(data[idx]) ^ math.Float64bits(clean[idx])
		if bits.OnesCount64(x) != 1 {
			t.Fatalf("trial %d: %d bits flipped", trial, bits.OnesCount64(x))
		}
		if b := bits.TrailingZeros64(x); b < 30 || b > 51 {
			t.Fatalf("trial %d: flipped bit %d outside 30..51", trial, b)
		}
	}
}

// TestRandomLowerIndex: every draw must land on or below the diagonal of the
// n×n column-major matrix (the storage region of a Cholesky factor), and over
// many draws the whole triangle should be reachable.
func TestRandomLowerIndex(t *testing.T) {
	const n = 8
	inj := ft.NewInjector(13)
	hit := make(map[int]bool)
	for trial := 0; trial < 4000; trial++ {
		idx := inj.RandomLowerIndex(n)
		i, j := idx%n, idx/n
		if i < j {
			t.Fatalf("trial %d: index %d is above the diagonal (%d,%d)", trial, idx, i, j)
		}
		hit[idx] = true
	}
	if want := n * (n + 1) / 2; len(hit) != want {
		t.Errorf("covered %d/%d lower-triangle entries", len(hit), want)
	}
}

// TestAddNoiseDelta: AddNoise perturbs exactly by the requested magnitude
// and records it.
func TestAddNoiseDelta(t *testing.T) {
	data := []float64{1, 2, 3, 4, 5, 6}
	inj := ft.NewInjector(14)
	f := inj.AddNoise(data, 4, 3, 2.5)
	if f.Row != 1 || f.Col != 1 || f.Delta != 2.5 {
		t.Fatalf("fault %v, want (1,1) delta 2.5", f)
	}
	if data[4] != 5+2.5 {
		t.Fatalf("value %g, want 7.5", data[4])
	}
	if len(inj.Injected) != 1 || inj.Injected[0] != f {
		t.Fatal("fault not recorded")
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
