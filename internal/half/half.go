// Package half implements IEEE 754 binary16 ("half precision") as a
// storage format with round-to-nearest-even conversions, emulating the
// fp16 arithmetic units the post-keynote mixed-precision work (fp16
// factorization + fp32/fp64 refinement) is built on. Values are stored in
// 16 bits and computed on after conversion to float32 — exactly the
// fp16-storage/fp32-accumulate model of tensor-core hardware.
package half

import "math"

// Half is an IEEE 754 binary16 value in its raw bit representation.
type Half uint16

// Machine parameters of binary16.
const (
	// Epsilon is the ulp of 1.0: 2⁻¹⁰.
	Epsilon = 0x1p-10
	// MaxValue is the largest finite half (65504).
	MaxValue = 65504.0
	// MinNormal is the smallest positive normal half (2⁻¹⁴).
	MinNormal = 0x1p-14
)

// Inf and NaN bit patterns.
const (
	PosInf Half = 0x7c00
	NegInf Half = 0xfc00
	qNaN   Half = 0x7e00
)

// FromFloat32 converts with round-to-nearest-even, overflowing to ±Inf and
// flushing tiny values to (signed) zero through the subnormal range.
func FromFloat32(f float32) Half {
	b := math.Float32bits(f)
	sign := uint16(b>>16) & 0x8000
	exp := int32(b>>23) & 0xff
	man := b & 0x7fffff

	if exp == 0xff { // Inf or NaN
		if man != 0 {
			return Half(sign) | qNaN
		}
		return Half(sign) | PosInf
	}
	e := exp - 127 + 15
	if e >= 0x1f { // overflow
		return Half(sign) | PosInf
	}
	if e <= 0 {
		// Subnormal half (or underflow to zero).
		if e < -10 {
			return Half(sign)
		}
		man |= 0x800000 // make the implicit bit explicit
		shift := uint32(14 - e)
		// Round to nearest even: add half-ulp−1 plus the sticky lsb.
		halfULP := uint32(1) << (shift - 1)
		rounded := (man + halfULP - 1 + ((man >> shift) & 1)) >> shift
		return Half(sign | uint16(rounded))
	}
	// Normal: round the 23-bit mantissa to 10 bits.
	lsb := (man >> 13) & 1
	rounded := man + 0xfff + lsb
	if rounded&0x800000 != 0 { // mantissa carry
		rounded = 0
		e++
		if e >= 0x1f {
			return Half(sign) | PosInf
		}
	}
	return Half(sign | uint16(e)<<10 | uint16(rounded>>13)&0x3ff)
}

// FromFloat64 converts through float32 (double rounding is harmless here:
// float32 keeps 13 more mantissa bits than the final 10).
func FromFloat64(f float64) Half {
	return FromFloat32(float32(f))
}

// Float32 converts back exactly (every half is representable as float32).
func (h Half) Float32() float32 {
	sign := uint32(h&0x8000) << 16
	exp := uint32(h>>10) & 0x1f
	man := uint32(h & 0x3ff)
	switch {
	case exp == 0x1f:
		if man != 0 {
			return math.Float32frombits(sign | 0x7fc00000) // NaN
		}
		return math.Float32frombits(sign | 0x7f800000) // Inf
	case exp == 0:
		// Subnormal: value = man·2⁻²⁴.
		v := float32(man) * 0x1p-24
		if sign != 0 {
			return -v
		}
		return v
	}
	return math.Float32frombits(sign | (exp-15+127)<<23 | man<<13)
}

// Float64 converts back exactly.
func (h Half) Float64() float64 { return float64(h.Float32()) }

// IsNaN reports whether h is a NaN.
func (h Half) IsNaN() bool {
	return h&0x7c00 == 0x7c00 && h&0x3ff != 0
}

// IsInf reports whether h is ±Inf.
func (h Half) IsInf() bool { return h&0x7fff == 0x7c00 }

// Round64 rounds a float64 through half precision and back — the standard
// way to emulate an fp16 store in a higher-precision computation.
func Round64(f float64) float64 { return FromFloat64(f).Float64() }

// RoundSlice32 rounds every element of a float32 slice through half
// precision in place, returning the slice.
func RoundSlice32(s []float32) []float32 {
	for i, v := range s {
		s[i] = FromFloat32(v).Float32()
	}
	return s
}
