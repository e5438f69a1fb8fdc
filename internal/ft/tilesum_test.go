package ft_test

import (
	"math"
	"math/bits"
	"math/rand"
	"strings"
	"testing"

	"exadla/internal/ft"
	"exadla/internal/matgen"
)

// TestFlipBitAdversarialInputs: FlipBit must yield a finite corruption for
// every input bit pattern, including the ones whose mantissa flips stay
// non-finite (Inf, NaN). Regression test for the old single-retry fallback,
// which returned NaN for Inf/NaN inputs.
func TestFlipBitAdversarialInputs(t *testing.T) {
	adversarial := []float64{
		math.Inf(1), math.Inf(-1), math.NaN(),
		math.MaxFloat64, -math.MaxFloat64,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		0, math.Copysign(0, -1),
		1, -1, 1e308, -1e308, 1e-308, 5e-324,
	}
	for seed := int64(0); seed < 50; seed++ {
		inj := ft.NewInjector(seed)
		for i, v := range adversarial {
			data := []float64{v}
			f := inj.FlipBit(data, 0, 1)
			got := data[0]
			if math.IsNaN(got) || math.IsInf(got, 0) {
				t.Fatalf("seed %d input %g: corruption %g is not finite", seed, v, got)
			}
			if f.Row != 0 || f.Col != 0 {
				t.Fatalf("input %d: fault location (%d,%d), want (0,0)", i, f.Row, f.Col)
			}
			// Exactly one bit must differ from the original pattern.
			x := math.Float64bits(v) ^ math.Float64bits(got)
			if bits.OnesCount64(x) != 1 {
				t.Fatalf("input %g: %d bits flipped", v, bits.OnesCount64(x))
			}
			// Finite inputs keep the documented mantissa range; Inf/NaN are
			// allowed to use exponent bits (they have to).
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				if b := bits.TrailingZeros64(x); b < 30 || b > 51 {
					t.Fatalf("finite input %g: flipped bit %d outside 30..51", v, b)
				}
			}
		}
	}
}

// TestDetectTolFloorAndScaling pins the contract of the scaled detection
// tolerance: the legacy constant (×n) is the floor, the ‖A‖·n·ε term takes
// over for large norms, and the function is monotone in both arguments.
func TestDetectTolFloorAndScaling(t *testing.T) {
	if got, want := ft.DetectTol(0, 100), 1e-8*100; got != want {
		t.Errorf("DetectTol(0,100) = %g, want floor %g", got, want)
	}
	if got, want := ft.DetectTol(1, 100), 1e-8*100; got != want {
		t.Errorf("DetectTol(1,100) = %g, want floor %g (scaled term below floor)", got, want)
	}
	big := ft.DetectTol(1e12, 512)
	if big <= 1e-8*512 {
		t.Errorf("DetectTol(1e12,512) = %g did not rise above the floor", big)
	}
	if ft.DetectTol(1e12, 1024) <= big {
		t.Error("DetectTol not monotone in n")
	}
	if ft.DetectTol(1e13, 512) <= big {
		t.Error("DetectTol not monotone in norm")
	}
	if got := ft.DetectTol(5, 0); got != 1e-8 {
		t.Errorf("DetectTol with n<1 = %g, want clamped floor 1e-8", got)
	}
}

// TestColSumsRoundTrip: recomputing sums of unchanged data must match the
// witness bit-for-bit (same summation order), so verification with any
// tolerance reports nothing.
func TestColSumsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	const m, n = 17, 9
	a := matgen.Dense[float64](rng, m, n)
	sums := make([]float64, 2*n)
	ft.ColSums(m, n, a, m, sums)
	if faults := ft.VerifyColSums(m, n, a, m, sums, 0); len(faults) != 0 {
		t.Fatalf("unchanged tile reported faults: %v", faults)
	}
}

// TestVerifyColSumsLocateAndCorrect injects one fault per run across every
// position of a tile and requires exact location and repair.
func TestVerifyColSumsLocateAndCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const m, n = 11, 6
	a := matgen.Dense[float64](rng, m, n)
	sums := make([]float64, 2*n)
	ft.ColSums(m, n, a, m, sums)
	for idx := 0; idx < m*n; idx++ {
		b := append([]float64(nil), a...)
		b[idx] += 3.75
		faults := ft.VerifyColSums(m, n, b, m, sums, 1e-8)
		if len(faults) != 1 || faults[0].Row != idx%m || faults[0].Col != idx/m {
			t.Fatalf("idx %d: faults %v, want single fault at (%d,%d)", idx, faults, idx%m, idx/m)
		}
		if c := ft.CorrectColSums(b, m, faults); c != 1 {
			t.Fatalf("idx %d: corrected %d, want 1", idx, c)
		}
		for i := range b {
			if math.Abs(b[i]-a[i]) > 1e-12 {
				t.Fatalf("idx %d: repair left residue at %d", idx, i)
			}
		}
	}
}

// TestVerifyTrilColSumsIgnoresUpperTriangle: garbage in the strict upper
// triangle (stale values in a Cholesky tile) must not trigger detection,
// while lower-triangle corruption is located.
func TestVerifyTrilColSumsIgnoresUpperTriangle(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	const n = 8
	a := matgen.Dense[float64](rng, n, n)
	sums := make([]float64, 2*n)
	ft.TrilColSums(n, a, n, sums)
	b := append([]float64(nil), a...)
	b[0+5*n] = 1e30 // (0,5): strict upper triangle — stale storage
	if faults := ft.VerifyTrilColSums(n, b, n, sums, 1e-8); len(faults) != 0 {
		t.Fatalf("upper-triangle garbage reported as faults: %v", faults)
	}
	b[6+2*n] -= 2.5 // (6,2): lower triangle
	faults := ft.VerifyTrilColSums(n, b, n, sums, 1e-8)
	if len(faults) != 1 || faults[0].Row != 6 || faults[0].Col != 2 {
		t.Fatalf("lower-triangle fault not located: %v", faults)
	}
}

// TestVerifyColSumsUnlocatable: a NaN column and a multi-error column must
// degrade to Row = -1 (detected but unlocatable) rather than "correcting"
// a healthy entry, and CorrectColSums must skip them.
func TestVerifyColSumsUnlocatable(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	const m, n = 9, 4
	a := matgen.Dense[float64](rng, m, n)
	sums := make([]float64, 2*n)
	ft.ColSums(m, n, a, m, sums)

	b := append([]float64(nil), a...)
	b[2+0*m] = math.NaN()
	faults := ft.VerifyColSums(m, n, b, m, sums, 1e-8)
	if len(faults) != 1 || faults[0].Row != -1 || faults[0].Col != 0 {
		t.Fatalf("NaN column: faults %v, want one unlocatable in column 0", faults)
	}
	if c := ft.CorrectColSums(b, m, faults); c != 0 {
		t.Fatalf("corrected %d unlocatable faults", c)
	}

	// Two opposite-sign faults in one column: ds is dominated by one of
	// them but the weighted ratio lands far outside the tile.
	b = append([]float64(nil), a...)
	b[1+2*m] += 1000
	b[7+2*m] -= 999.9999
	faults = ft.VerifyColSums(m, n, b, m, sums, 1e-6)
	for _, f := range faults {
		if f.Col != 2 {
			t.Fatalf("fault attributed to wrong column: %v", f)
		}
	}
	if len(faults) == 1 && faults[0].Row >= 0 {
		// The ratio dw/ds = (r1·d1+r2·d2)/(d1+d2) explodes for d1 ≈ -d2 and
		// must have been clamped to unlocatable.
		t.Fatalf("double fault mislocated as single fault at row %d", faults[0].Row)
	}
}

// TestStatsNote: counting discipline, including nil-safety.
func TestStatsNote(t *testing.T) {
	var s ft.Stats
	s.Note(nil, 0) // no faults: no detection
	s.Note([]ft.Fault{{Row: 1}, {Row: -1}}, 1)
	if s.Detected.Load() != 1 || s.Corrected.Load() != 1 || s.Unlocated.Load() != 1 {
		t.Errorf("stats = detected %d corrected %d unlocated %d, want 1/1/1",
			s.Detected.Load(), s.Corrected.Load(), s.Unlocated.Load())
	}
	var nilStats *ft.Stats
	nilStats.Note([]ft.Fault{{Row: 0}}, 1) // must not panic
}

func TestCorruptionErrorText(t *testing.T) {
	e := &ft.CorruptionError{TileRow: 2, TileCol: 1, Faults: []ft.Fault{{Row: 3, Col: 0, Delta: 1}}, Corrected: 1}
	if msg := e.Error(); !strings.Contains(msg, "(2,1)") || !strings.Contains(msg, "1 corrected") {
		t.Errorf("error text %q missing tile coordinates or correction count", msg)
	}
	sweep := &ft.CorruptionError{TileRow: -1, TileCol: -1}
	if msg := sweep.Error(); !strings.Contains(msg, "sweep") {
		t.Errorf("sweep error text %q does not say sweep", msg)
	}
}
