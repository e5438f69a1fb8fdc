package blas

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// kernDot and kernAxpy reach the unit-stride kernels in T: through Dot and
// Axpy for float32, through DotF64 and AxpyF64 for float64, whose library
// Dot and Axpy keep their Go loops.
func kernDot[T Float](x, y []T) T {
	if x64, ok := any(x).([]float64); ok {
		return T(DotF64(x64, any(y).([]float64)))
	}
	return Dot(len(x), x, 1, y, 1)
}

func kernAxpy[T Float](alpha T, x, y []T) {
	if x64, ok := any(x).([]float64); ok {
		AxpyF64(float64(alpha), x64, any(y).([]float64))
		return
	}
	Axpy(len(x), alpha, x, 1, y, 1)
}

// TestVecKernels runs the dot and axpy kernels in both types at every
// length 0…67 (every tail of the 32- and 16-element steps and of the
// 8- and 4-lane ones) and at slice offsets 0…7 (every alignment mod 32
// bytes): a result is bitwise the same at every offset, within k·ε of a
// float64-accumulated reference, and NaN and ±Inf reach it, 0·NaN and
// 0·Inf included. Then again on the portable loops.
func TestVecKernels(t *testing.T) {
	for _, portable := range []bool{false, true} {
		t.Run(fmt.Sprintf("portable=%v", portable), func(t *testing.T) {
			if portable {
				forcePortableKernel(t)
			}
			checkVecKernels[float32](t)
			checkVecKernels[float64](t)
		})
	}
}

func checkVecKernels[T Float](t *testing.T) {
	t.Helper()
	eps := 0x1p-52
	if is32[T]() {
		eps = 0x1p-23
	}
	rng := rand.New(rand.NewSource(55))
	const alpha = -0.75
	for k := 0; k <= 67; k++ {
		x, y := make([]T, k), make([]T, k)
		for i := range x {
			x[i], y[i] = T(rng.NormFloat64()), T(rng.NormFloat64())
		}
		// The reference accumulates the exact products in float64.
		var want, mag float64
		for i := range x {
			p := float64(x[i]) * float64(y[i])
			want += p
			mag += math.Abs(p)
		}
		var dot0 T
		var axpy0 []T
		for off := 0; off < 8; off++ {
			xs, ys := make([]T, off+k)[off:], make([]T, off+k)[off:]
			copy(xs, x)
			copy(ys, y)
			d := kernDot(xs, ys)
			kernAxpy(alpha, xs, ys)
			if off == 0 {
				dot0, axpy0 = d, append([]T(nil), ys...)
				if diff := math.Abs(float64(d) - want); diff > float64(k+1)*eps*mag {
					t.Fatalf("%T dot k=%d: %v, reference %v", d, k, d, want)
				}
				for i, v := range ys {
					w := alpha*float64(x[i]) + float64(y[i])
					if diff := math.Abs(float64(v) - w); diff > 2*eps*(math.Abs(alpha*float64(x[i]))+math.Abs(float64(y[i]))) {
						t.Fatalf("%T axpy k=%d: y[%d] = %v, reference %v", d, k, i, v, w)
					}
				}
				continue
			}
			if math.Float64bits(float64(d)) != math.Float64bits(float64(dot0)) {
				t.Fatalf("%T dot k=%d: %v at offset %d, %v at offset 0", d, k, d, off, dot0)
			}
			if i := sameBits(ys, axpy0); i >= 0 {
				t.Fatalf("%T axpy k=%d: y[%d] = %v at offset %d, %v at offset 0", d, k, i, ys[i], off, axpy0[i])
			}
		}
		if k > 0 {
			checkVecNonFinite(t, x, y)
		}
	}
}

// checkVecNonFinite seeds NaN, ±Inf and zeros against them at the first,
// a middle and the last position of x and y and checks the class of what
// the kernels return.
func checkVecNonFinite[T Float](t *testing.T, x, y []T) {
	t.Helper()
	k := len(x)
	nan, inf := T(math.NaN()), T(math.Inf(1))
	for _, p := range []int{0, k / 2, k - 1} {
		for _, c := range []struct {
			name   string
			xp, yp T
			want   float64 // the dot's class: NaN or ±Inf
		}{
			{"NaN·y", nan, 1, math.NaN()},
			{"Inf·y", inf, 1, math.Inf(1)},
			{"-Inf·y", -inf, 1, math.Inf(-1)},
			{"0·NaN", 0, nan, math.NaN()},
			{"0·Inf", 0, inf, math.NaN()},
		} {
			xs, ys := append([]T(nil), x...), append([]T(nil), y...)
			xs[p], ys[p] = c.xp, c.yp
			if got := float64(kernDot(xs, ys)); !sameValueClass(got, c.want, 0) {
				t.Fatalf("%T dot k=%d %s at %d: %v, want %v", x[0], k, c.name, p, got, c.want)
			}
		}
		// axpy: a NaN or Inf in x reaches only its own y; NaN and Inf
		// coefficients times a zero of x make NaN.
		for _, c := range []struct {
			name  string
			alpha T
			xp    T
			want  float64
		}{
			{"α·NaN", 0.5, nan, math.NaN()},
			{"α·Inf", 0.5, inf, math.Inf(1)},
			{"NaN·0", nan, 0, math.NaN()},
			{"Inf·0", inf, 0, math.NaN()},
		} {
			xs, ys := append([]T(nil), x...), append([]T(nil), y...)
			xs[p] = c.xp
			kernAxpy(c.alpha, xs, ys)
			if got := float64(ys[p]); !sameValueClass(got, c.want, 0) {
				t.Fatalf("%T axpy k=%d %s at %d: y = %v, want %v", x[0], k, c.name, p, got, c.want)
			}
			if math.IsNaN(float64(c.alpha)) || math.IsInf(float64(c.alpha), 0) {
				continue
			}
			for i, v := range ys {
				if i != p && !sameValueClass(float64(v), 0, math.Inf(1)) {
					t.Fatalf("%T axpy k=%d %s at %d: y[%d] = %v", x[0], k, c.name, p, i, v)
				}
			}
		}
	}
}

// FuzzGemvTrsvDiff32 differentially fuzzes float32 Gemv and Trsv with unit
// strides, the level-2 paths on the dot and axpy kernels, against RefGemv
// and RefTrsm on finite data, with vectors at any alignment. flags: bit 0
// trans, bit 1 uplo, bit 2 diag, bits 3–4 α, bit 5 β = 0 (else 0.5),
// bit 6 the portable loops.
func FuzzGemvTrsvDiff32(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(8), uint8(0))
	f.Add(int64(2), uint8(67), uint8(1), uint8(0x0f))
	f.Add(int64(3), uint8(1), uint8(33), uint8(0x35))
	f.Add(int64(4), uint8(96), uint8(95), uint8(0x6a))
	f.Add(int64(5), uint8(9), uint8(97), uint8(0x1b))
	f.Fuzz(func(t *testing.T, seed int64, m8, n8, flags uint8) {
		m, n := int(m8%100), 1+int(n8%100)
		trans, uplo, diag := NoTrans, Upper, NonUnit
		if flags&1 != 0 {
			trans = Trans
		}
		if flags&2 != 0 {
			uplo = Lower
		}
		if flags&4 != 0 {
			diag = Unit
		}
		alpha, beta := float32(fuzzAlphas[flags>>3&3]), float32(0.5)
		if flags&32 != 0 {
			beta = 0
		}
		if flags&64 != 0 {
			forcePortableKernel(t)
		}
		rng := rand.New(rand.NewSource(seed))
		lda := max(1, m) + rng.Intn(3)
		a := randOf[float32](rng, m, n, lda)
		lx, ly := n, m
		if trans == Trans {
			lx, ly = m, n
		}
		x := randOf[float32](rng, lx+8, 1, lx+8)[rng.Intn(8):][:lx]
		y := randOf[float32](rng, ly+8, 1, ly+8)[rng.Intn(8):][:ly]
		want := append([]float32(nil), y...)
		Gemv(trans, m, n, alpha, a, lda, x, 1, beta, y, 1)
		RefGemv(trans, m, n, alpha, a, lda, x, 1, beta, want, 1)
		checkPadding(t, "Gemv A", m, n, lda, a)
		if d := maxAbsDiff(y, want); d > 1e-5*float64(m+n+1) {
			t.Fatalf("Gemv %v m=%d n=%d α=%g β=%g: max diff %g", trans, m, n, alpha, beta, d)
		}

		tri := randOf[float32](rng, n, n, n)
		conditionedTriangle(tri, n, n)
		b := randOf[float32](rng, n+8, 1, n+8)[rng.Intn(8):][:n]
		wantB := append([]float32(nil), b...)
		Trsv(uplo, trans, diag, n, tri, n, b, 1)
		RefTrsm(Left, uplo, trans, diag, n, 1, 1, tri, n, wantB, n)
		if d := maxAbsDiff(b, wantB); d > 1e-5*float64(n+1) {
			t.Fatalf("Trsv %v%v%v n=%d: max diff %g", uplo, trans, diag, n, d)
		}
	})
}
