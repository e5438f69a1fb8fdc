package rnd

import (
	"math"
	"math/rand"

	"exadla/internal/blas"
	"exadla/internal/lapack"
)

// SRHT is a subsampled randomized Hadamard transform: S = √(m̂/s)·P·H·D
// where D is a random ±1 diagonal, H the (normalized) Walsh–Hadamard
// transform on the zero-padded power-of-two length m̂, and P samples s
// rows. Applying it costs O(m̂·log m̂) per column instead of the O(s·m) of
// a dense Gaussian sketch — the fast mixing Blendenpik relies on to beat
// direct QR.
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

// SolveLSFast is SolveLS with the SRHT sketch: the full Blendenpik recipe.
// Cost: O(m·n·log m) sketch + O(s·n²) QR + O(iterations·m·n) LSQR, versus
// O(m·n²) for direct QR — the crossover the E8 experiment measures.
func SolveLSFast(rng *rand.Rand, m, n int, a []float64, lda int, b []float64, sketchFactor float64, atol float64, maxIter int) ([]float64, SolveStats, error) {
	s := sketchRows(n, m, sketchFactor)
	t := NewSRHT(rng, s, m)
	sa := t.ApplyMatrix(n, a, lda)
	tau := make([]float64, n)
	lapack.Geqrf(s, n, sa, s, tau)
	for i := 0; i < n; i++ {
		if sa[i+i*s] == 0 {
			return nil, SolveStats{SketchRows: s}, errRankDeficient(i)
		}
	}
	op := &precondOp{m: m, n: n, a: a, lda: lda, r: sa, ldr: s}
	res := LSQR(op, b, atol, maxIter)
	x := append([]float64(nil), res.X...)
	blas.Trsv(blas.Upper, blas.NoTrans, blas.NonUnit, n, sa, s, x, 1)
	return x, SolveStats{SketchRows: s, LSQRIterations: res.Iterations, Converged: res.Converged}, nil
}

type rankDeficientError int

func errRankDeficient(col int) error { return rankDeficientError(col) }

func (e rankDeficientError) Error() string {
	return "rnd: sketched matrix rank deficient"
}
