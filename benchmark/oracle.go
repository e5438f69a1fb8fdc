package main

import "math"

// The oracle is written in plain loops over column-major slices, sharing no
// kernel with the library it judges. Every check runs after the clock stops.

const eps = 0x1p-52

// solveTol is the acceptance threshold 64·n·ε on the normwise backward error
// of a float64 direct solve of order n.
func solveTol(n int) float64 { return 64 * float64(n) * eps }

// mixedTol is the stated accuracy of the mixed-precision workload.
const mixedTol = 1e-12

// residual returns r = b − A·x for a column-major m×n matrix.
func residual(m, n int, a, x, b []float64) []float64 {
	r := append([]float64(nil), b...)
	for j := 0; j < n; j++ {
		xj := x[j]
		col := a[j*m : (j+1)*m]
		for i, v := range col {
			r[i] -= v * xj
		}
	}
	return r
}

func normInfVec(v []float64) float64 {
	var mx float64
	for _, x := range v {
		if ax := math.Abs(x); ax > mx || math.IsNaN(ax) {
			mx = ax
		}
	}
	return mx
}

// normInfMat is the maximum absolute row sum of a column-major m×n matrix.
func normInfMat(m, n int, a []float64) float64 {
	sums := make([]float64, m)
	for j := 0; j < n; j++ {
		for i, v := range a[j*m : (j+1)*m] {
			sums[i] += math.Abs(v)
		}
	}
	return normInfVec(sums)
}

func norm2(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// solveBackwardError is ‖b−Ax‖∞ / (‖A‖∞‖x‖∞ + ‖b‖∞) for a square system.
// A result of the wrong length, or one holding a NaN, scores +Inf.
func solveBackwardError(n int, a, x, b []float64, normA float64) float64 {
	if len(x) != n {
		return math.Inf(1)
	}
	r := residual(n, n, a, x, b)
	be := normInfVec(r) / (normA*normInfVec(x) + normInfVec(b))
	if math.IsNaN(be) {
		return math.Inf(1)
	}
	return be
}

// lsBackwardError is ‖Aᵀ(b−Ax)‖₂ / (‖A‖_F·(‖A‖_F‖x‖₂ + ‖b‖₂)): zero at the
// exact least-squares solution, O(ε) for a backward-stable one.
func lsBackwardError(m, n int, a, x, b []float64, normA float64) float64 {
	if len(x) != n {
		return math.Inf(1)
	}
	r := residual(m, n, a, x, b)
	atr := make([]float64, n)
	for j := 0; j < n; j++ {
		var s float64
		for i, v := range a[j*m : (j+1)*m] {
			s += v * r[i]
		}
		atr[j] = s
	}
	be := norm2(atr) / (normA * (normA*norm2(x) + norm2(b)))
	if math.IsNaN(be) {
		return math.Inf(1)
	}
	return be
}

// lowerBitwiseEqual compares the lower triangles of two column-major n×n
// matrices bit for bit.
func lowerBitwiseEqual(n int, a, b []float64) bool {
	if len(a) != n*n || len(b) != n*n {
		return false
	}
	for j := 0; j < n; j++ {
		for i := j; i < n; i++ {
			if math.Float64bits(a[i+j*n]) != math.Float64bits(b[i+j*n]) {
				return false
			}
		}
	}
	return true
}
