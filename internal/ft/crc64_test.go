package ft

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"math/rand"
	"testing"
)

func TestCRC64BitSensitivity(t *testing.T) {
	data := make([]float64, 256)
	for i := range data {
		data[i] = float64(i) * 0.7813
	}
	base := CRC64(data)
	if base != CRC64(data) {
		t.Fatal("CRC64 is not deterministic")
	}
	// Any single flipped bit, in any element, changes the checksum.
	for _, elem := range []int{0, 1, 100, 255} {
		for _, bit := range []uint{0, 1, 31, 52, 63} {
			mut := append([]float64(nil), data...)
			mut[elem] = math.Float64frombits(math.Float64bits(mut[elem]) ^ (1 << bit))
			if CRC64(mut) == base {
				t.Errorf("flip of element %d bit %d not detected", elem, bit)
			}
		}
	}
}

func TestCRC64DistinguishesBitPatterns(t *testing.T) {
	// The checksum is over bit patterns, not values: 0.0 and -0.0 compare
	// equal as floats but must checksum differently, and NaNs (never equal
	// to themselves) must checksum stably.
	if CRC64([]float64{0.0}) == CRC64([]float64{math.Copysign(0, -1)}) {
		t.Error("+0 and -0 collide")
	}
	nan := []float64{math.NaN()}
	if CRC64(nan) != CRC64(nan) {
		t.Error("NaN checksum is unstable")
	}
	if CRC64(nil) != CRC64([]float64{}) {
		t.Error("empty slices disagree")
	}
}

// leBytes is the wire encoding CRC64Bytes is defined over.
func leBytes(data []float64) []byte {
	b := make([]byte, 8*len(data))
	for i, v := range data {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
	}
	return b
}

// ramp is a 128×128 tile (one dist_chol tile) of distinct values.
func ramp() []float64 {
	data := make([]float64, 128*128)
	for i := range data {
		data[i] = float64(i)/7 - 1000
	}
	return data
}

// TestCRC64Golden pins the checksum: coordinator and workers must agree on
// it bit for bit, so any change to the function is a wire-protocol bump.
// The values were cross-checked against bitwise CRC-32C and zlib CRC-32
// implementations outside Go.
func TestCRC64Golden(t *testing.T) {
	for _, tc := range []struct {
		name string
		data []float64
		want uint64
	}{
		{"empty", nil, 0x0000000000000000},
		{"negative zero", []float64{math.Copysign(0, -1)}, 0x0ede89f2889a5c49},
		{"NaN", []float64{math.Float64frombits(0x7ff8000000000001)}, 0x33114a42b557d8ef},
		{"128x128 ramp", ramp(), 0x31fe6ab15d479c52},
	} {
		if got := CRC64(tc.data); got != tc.want {
			t.Errorf("%s: CRC64 = %#016x, want %#016x", tc.name, got, tc.want)
		}
	}
}

// TestCRC64MatchesBytes: the float form and the byte form are one checksum.
func TestCRC64MatchesBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 7, 256, 257, 767, 128 * 128} {
		data := make([]float64, n)
		for i := range data {
			data[i] = math.Float64frombits(rng.Uint64())
		}
		if got, want := CRC64(data), CRC64Bytes(leBytes(data)); got != want {
			t.Errorf("n=%d: CRC64 %#016x != CRC64Bytes %#016x", n, got, want)
		}
	}
}

// TestCRC64EverySingleBitFlip flips each of the 16 384 bits of a 16×16 tile.
func TestCRC64EverySingleBitFlip(t *testing.T) {
	data := ramp()[:16*16]
	b := leBytes(data)
	base := CRC64Bytes(b)
	for bit := 0; bit < 8*len(b); bit++ {
		b[bit/8] ^= 1 << (bit % 8)
		if CRC64Bytes(b) == base {
			t.Fatalf("flip of bit %d (element %d, bit %d) not detected", bit, bit/64, bit%64)
		}
		b[bit/8] ^= 1 << (bit % 8)
	}
}

// TestCRC64DetectsBursts XORs 10 000 seeded random bursts of 1 to 64 bits —
// first and last bit set, anything between — at random bit offsets of a
// 128×128 tile. A degree-64 generator catches every one.
func TestCRC64DetectsBursts(t *testing.T) {
	b := leBytes(ramp())
	base := CRC64Bytes(b)
	rng := rand.New(rand.NewSource(64))
	nbits := 8 * len(b)
	for k := 0; k < 10000; k++ {
		length := 1 + rng.Intn(64)
		pattern := rng.Uint64() | 1 | 1<<(length-1)
		if length < 64 {
			pattern &= 1<<length - 1
		}
		off := rng.Intn(nbits - length + 1)
		flip := func() {
			for i := 0; i < length; i++ {
				if pattern>>i&1 != 0 {
					p := off + i
					b[p/8] ^= 1 << (p % 8)
				}
			}
		}
		flip()
		if CRC64Bytes(b) == base {
			t.Fatalf("burst %d (length %d, pattern %#x, bit offset %d) not detected", k, length, pattern, off)
		}
		flip()
	}
}

// TestCRC64GeneratorsCoprime checks the premise the 64-bit guarantee rests
// on: gcd(P_C, P_IEEE) = 1 over GF(2), so the pair of CRC-32s is one CRC
// with generator P_C·P_IEEE.
func TestCRC64GeneratorsCoprime(t *testing.T) {
	// Normal (non-reflected) forms of the generators, x^32 term included.
	const pc, pieee = 1<<32 | 0x1EDC6F41, 1<<32 | 0x04C11DB7
	if crc32.Castagnoli != reflect32(0x1EDC6F41) || crc32.IEEE != reflect32(0x04C11DB7) {
		t.Fatal("generator constants do not match hash/crc32's polynomials")
	}
	if g := gf2GCD(pc, pieee); g != 1 {
		t.Fatalf("gcd(P_C, P_IEEE) = %#x, want 1", g)
	}
	// The gcd is not vacuous: a polynomial shares its factors with itself.
	if g := gf2GCD(pc, pc); g != pc {
		t.Fatalf("gcd(P_C, P_C) = %#x, want P_C", g)
	}
}

// reflect32 reverses the bit order of a 32-bit polynomial (hash/crc32 takes
// generators in reflected form).
func reflect32(p uint32) uint32 {
	var r uint32
	for i := 0; i < 32; i++ {
		r |= (p >> i & 1) << (31 - i)
	}
	return r
}

// gf2GCD is Euclid's algorithm on polynomials over GF(2), coefficients as bits.
func gf2GCD(a, b uint64) uint64 {
	deg := func(p uint64) int {
		d := -1
		for ; p != 0; p >>= 1 {
			d++
		}
		return d
	}
	for b != 0 {
		for deg(a) >= deg(b) {
			a ^= b << (deg(a) - deg(b))
		}
		a, b = b, a
	}
	return a
}
