package blas

import "math"

// Dot computes the inner product xᵀy of two n-vectors.
func Dot[T Float](n int, x []T, incX int, y []T, incY int) T {
	checkVector("x", n, x, incX)
	checkVector("y", n, y, incY)
	if n == 0 {
		return 0
	}
	if incX == 1 && incY == 1 {
		if x32, ok := any(x).([]float32); ok && vecKernels() {
			return T(dot32(x32[:n], any(y).([]float32)))
		}
		var s T
		for i, v := range x[:n] {
			s += v * y[i]
		}
		return s
	}
	ix, iy := vstart(n, incX), vstart(n, incY)
	var s T
	for i := 0; i < n; i++ {
		s += x[ix] * y[iy]
		ix += incX
		iy += incY
	}
	return s
}

// Nrm2 computes the Euclidean norm of an n-vector. One pass sums the
// squares in float64, which neither overflows nor underflows for float32
// data. For float64 data a second, scaled pass in the manner of the
// reference dnrm2 runs only when that sum is not finite (an overflow, NaN
// or ±Inf) or so small that underflowed squares could matter.
func Nrm2[T Float](n int, x []T, incX int) T {
	checkVector("x", n, x, incX)
	if n == 0 {
		return 0
	}
	var ssq float64
	if incX == 1 {
		for _, v := range x[:n] {
			ssq += float64(v) * float64(v)
		}
	} else {
		for i, ix := 0, vstart(n, incX); i < n; i, ix = i+1, ix+incX {
			ssq += float64(x[ix]) * float64(x[ix])
		}
	}
	// Each square below the normal range is off by at most 2⁻¹⁰⁷⁴, so above
	// 2⁻⁹⁶⁰ their total error stays under ε·ssq for any n < 2⁶⁰.
	if ssq >= 0x1p-960 && ssq <= math.MaxFloat64 {
		return T(math.Sqrt(ssq))
	}
	return nrm2Scaled(n, x, incX)
}

// nrm2Scaled is the overflow- and underflow-safe Euclidean norm: squares
// are summed relative to the largest magnitude seen so far.
func nrm2Scaled[T Float](n int, x []T, incX int) T {
	var scale, ssq T = 0, 1
	ix := vstart(n, incX)
	for i := 0; i < n; i++ {
		v := x[ix]
		ix += incX
		if v == 0 {
			continue
		}
		av := v
		if av < 0 {
			av = -av
		}
		if scale < av {
			r := scale / av
			ssq = 1 + ssq*r*r
			scale = av
		} else {
			r := av / scale
			ssq += r * r
		}
	}
	return scale * T(math.Sqrt(float64(ssq)))
}

// Axpy computes y ← αx + y for n-vectors x and y.
func Axpy[T Float](n int, alpha T, x []T, incX int, y []T, incY int) {
	checkVector("x", n, x, incX)
	checkVector("y", n, y, incY)
	if n == 0 || alpha == 0 {
		return
	}
	if incX == 1 && incY == 1 {
		if x32, ok := any(x).([]float32); ok && vecKernels() {
			axpy32(float32(alpha), x32[:n], any(y).([]float32))
			return
		}
		for i, v := range x[:n] {
			y[i] += alpha * v
		}
		return
	}
	ix, iy := vstart(n, incX), vstart(n, incY)
	for i := 0; i < n; i++ {
		y[iy] += alpha * x[ix]
		ix += incX
		iy += incY
	}
}

// Scal computes x ← αx for an n-vector x.
func Scal[T Float](n int, alpha T, x []T, incX int) {
	checkVector("x", n, x, incX)
	if incX == 1 {
		for i := range x[:n] {
			x[i] *= alpha
		}
		return
	}
	ix := vstart(n, incX)
	for i := 0; i < n; i++ {
		x[ix] *= alpha
		ix += incX
	}
}

// Copy copies an n-vector x into y.
func Copy[T Float](n int, x []T, incX int, y []T, incY int) {
	checkVector("x", n, x, incX)
	checkVector("y", n, y, incY)
	if incX == 1 && incY == 1 {
		copy(y[:n], x[:n])
		return
	}
	ix, iy := vstart(n, incX), vstart(n, incY)
	for i := 0; i < n; i++ {
		y[iy] = x[ix]
		ix += incX
		iy += incY
	}
}

// Swap exchanges the contents of two n-vectors.
func Swap[T Float](n int, x []T, incX int, y []T, incY int) {
	checkVector("x", n, x, incX)
	checkVector("y", n, y, incY)
	ix, iy := vstart(n, incX), vstart(n, incY)
	for i := 0; i < n; i++ {
		x[ix], y[iy] = y[iy], x[ix]
		ix += incX
		iy += incY
	}
}
