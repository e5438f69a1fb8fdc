package rnd

import (
	"math"
	"math/rand"
)

// SRHT is a subsampled randomized Hadamard transform: S = √(m̂/s)·P·H·D
// where D is a random ±1 diagonal, H the (normalized) Walsh–Hadamard
// transform on the zero-padded power-of-two length m̂, and P samples s
// rows. Applying it costs O(m̂·log m̂) per column and no s×m matrix, where
// a dense Gaussian sketch costs O(s·m) of both — the fast mixing Blendenpik
// relies on to beat direct QR.
type SRHT struct {
	m, s, mPad int
	signs      []float64 // ±1, length m
	rows       []int     // s sampled indices into [0, mPad)
	scale      float64
}

// NewSRHT draws a transform mapping length-m vectors to length-s sketches.
func NewSRHT(rng *rand.Rand, s, m int) *SRHT {
	mPad := 1
	for mPad < m {
		mPad <<= 1
	}
	t := &SRHT{m: m, s: s, mPad: mPad}
	t.signs = make([]float64, m)
	for i := range t.signs {
		if rng.Intn(2) == 0 {
			t.signs[i] = 1
		} else {
			t.signs[i] = -1
		}
	}
	t.rows = make([]int, s)
	for i := range t.rows {
		t.rows[i] = rng.Intn(mPad)
	}
	// H is normalized to be orthonormal (1/√m̂ per butterfly pass total);
	// sampling s of m̂ rows rescales by √(m̂/s).
	t.scale = math.Sqrt(float64(mPad) / float64(s))
	return t
}

// fht performs the in-place Walsh–Hadamard butterfly on a power-of-two
// length buffer, normalized so the transform is orthonormal.
func fht(buf []float64) {
	n := len(buf)
	for h := 1; h < n; h <<= 1 {
		for i := 0; i < n; i += h << 1 {
			for j := i; j < i+h; j++ {
				x, y := buf[j], buf[j+h]
				buf[j], buf[j+h] = x+y, x-y
			}
		}
	}
	inv := 1 / math.Sqrt(float64(n))
	for i := range buf {
		buf[i] *= inv
	}
}

// ApplyMatrix computes S·A for an m×n column-major matrix, returning the
// s×n sketch.
func (t *SRHT) ApplyMatrix(n int, a []float64, lda int) []float64 {
	out := make([]float64, t.s*n)
	buf := make([]float64, t.mPad)
	for j := 0; j < n; j++ {
		for i := range buf {
			buf[i] = 0
		}
		col := a[j*lda : j*lda+t.m]
		for i, v := range col {
			buf[i] = t.signs[i] * v
		}
		fht(buf)
		for i, r := range t.rows {
			out[i+j*t.s] = t.scale * buf[r]
		}
	}
	return out
}
