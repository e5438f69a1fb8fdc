package half

import (
	"math"
	"testing"
)

func TestExactValues(t *testing.T) {
	cases := []struct {
		f    float32
		bits Half
	}{
		{0, 0x0000},
		{1, 0x3c00},
		{-1, 0xbc00},
		{2, 0x4000},
		{0.5, 0x3800},
		{65504, 0x7bff},   // max finite
		{0x1p-14, 0x0400}, // min normal
		{0x1p-24, 0x0001}, // min subnormal
		{1.5, 0x3e00},
		{-0.25, 0xb400},
	}
	for _, c := range cases {
		if got := FromFloat32(c.f); got != c.bits {
			t.Errorf("FromFloat32(%v) = %#04x, want %#04x", c.f, got, c.bits)
		}
		if got := c.bits.Float32(); got != c.f {
			t.Errorf("%#04x.Float32() = %v, want %v", c.bits, got, c.f)
		}
	}
}

func TestNegativeZero(t *testing.T) {
	nz := FromFloat32(float32(math.Copysign(0, -1)))
	if nz != 0x8000 {
		t.Errorf("-0 = %#04x", nz)
	}
	if v := nz.Float32(); v != 0 || !math.Signbit(float64(v)) {
		t.Errorf("-0 round trip = %v", v)
	}
}

func TestOverflowToInf(t *testing.T) {
	if got := FromFloat32(70000); got != PosInf {
		t.Errorf("70000 → %#04x, want +Inf", got)
	}
	if got := FromFloat32(-1e10); got != NegInf {
		t.Errorf("-1e10 → %#04x, want -Inf", got)
	}
	if got := FromFloat32(float32(math.Inf(1))); got != PosInf {
		t.Errorf("+Inf → %#04x", got)
	}
}

func TestUnderflowToZero(t *testing.T) {
	if got := FromFloat32(1e-10); got != 0 {
		t.Errorf("1e-10 → %#04x, want +0", got)
	}
	if got := FromFloat32(-1e-10); got != 0x8000 {
		t.Errorf("-1e-10 → %#04x, want -0", got)
	}
}

func TestNaN(t *testing.T) {
	h := FromFloat32(float32(math.NaN()))
	if !h.IsNaN() {
		t.Errorf("NaN → %#04x, not NaN", h)
	}
	if !math.IsNaN(float64(h.Float32())) {
		t.Error("NaN round trip lost NaN-ness")
	}
	if PosInf.IsNaN() || !PosInf.IsInf() {
		t.Error("Inf classification")
	}
}

func TestRoundToNearestEven(t *testing.T) {
	// Halfway cases between representable halves round to even mantissa.
	// 1 + 2⁻¹¹ is exactly halfway between 1 (mantissa 0, even) and 1+2⁻¹⁰.
	if got := FromFloat32(1 + 0x1p-11); got != 0x3c00 {
		t.Errorf("1+2^-11 → %#04x, want 0x3c00 (ties to even)", got)
	}
	// 1 + 3·2⁻¹¹ is halfway between 1+2⁻¹⁰ (odd) and 1+2·2⁻¹⁰ (even).
	if got := FromFloat32(1 + 3*0x1p-11); got != 0x3c02 {
		t.Errorf("1+3·2^-11 → %#04x, want 0x3c02", got)
	}
	// Just above halfway rounds up.
	if got := FromFloat32(1 + 0x1p-11 + 0x1p-20); got != 0x3c01 {
		t.Errorf("slightly above halfway → %#04x, want 0x3c01", got)
	}
}

func TestMantissaCarryPropagation(t *testing.T) {
	// The largest half below 2 rounds up to exactly 2 (exponent carry).
	f := float32(2 - 0x1p-12)
	if got := FromFloat32(f); got != 0x4000 {
		t.Errorf("2−2⁻¹² → %#04x, want 0x4000 (=2)", got)
	}
	// Just below the overflow threshold rounds to Inf.
	if got := FromFloat32(65520); got != PosInf {
		t.Errorf("65520 → %#04x, want +Inf", got)
	}
	if got := FromFloat32(65519); got != 0x7bff {
		t.Errorf("65519 → %#04x, want max finite", got)
	}
}

// TestExhaustiveRoundTrip checks that every one of the 65536 half bit
// patterns survives Half→float32→Half (canonicalizing NaNs).
func TestExhaustiveRoundTrip(t *testing.T) {
	for i := 0; i < 1<<16; i++ {
		h := Half(i)
		f := h.Float32()
		back := FromFloat32(f)
		if h.IsNaN() {
			if !back.IsNaN() {
				t.Fatalf("%#04x: NaN lost", h)
			}
			continue
		}
		if back != h {
			t.Fatalf("%#04x → %v → %#04x", h, f, back)
		}
	}
}

func TestEpsilonProperty(t *testing.T) {
	// 1 + Epsilon must be the next half after 1; 1 + Epsilon/2 rounds to 1.
	if got := FromFloat32(1 + Epsilon); got != 0x3c01 {
		t.Errorf("1+ε → %#04x", got)
	}
	if got := FromFloat32(1 + Epsilon/2); got != 0x3c00 {
		t.Errorf("1+ε/2 → %#04x", got)
	}
}

func TestRoundSlices(t *testing.T) {
	s := []float64{1, 1 + 1e-8, 100000, 1e-30}
	for i, v := range s {
		s[i] = Round64(v)
	}
	if s[0] != 1 || s[1] != 1 {
		t.Error("small perturbation should vanish at half precision")
	}
	if !math.IsInf(s[2], 1) {
		t.Errorf("100000 should overflow, got %v", s[2])
	}
	if s[3] != 0 {
		t.Errorf("1e-30 should flush to zero, got %v", s[3])
	}
	s32 := []float32{3.14159265}
	RoundSlice32(s32)
	if d := math.Abs(float64(s32[0]) - 3.140625); d > 1e-12 {
		t.Errorf("π rounded to %v", s32[0])
	}
}
