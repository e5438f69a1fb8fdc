// Package lapack provides pure-Go implementations of the LAPACK-style dense
// factorization kernels the library is built on: Cholesky (POTRF), LU with
// partial pivoting (GETRF), and Householder QR (GEQRF), together with their
// solve drivers, the auxiliary routines they need (LARFG/LARFT/LARFB, LASWP,
// LANGE, ...), and blocked variants structured exactly like the reference
// implementations.
//
// Matrices are column-major with explicit leading dimensions, matching
// package blas. Routines are generic over float32 and float64.
//
// Unlike reference LAPACK's info codes, failures are reported as typed
// errors: *NotPositiveDefiniteError and *SingularError. As in LAPACK, GETRF
// reports singularity but still completes the factorization, so callers can
// decide whether an exactly-zero pivot matters for their use.
package lapack

import (
	"fmt"
	"math"

	"exadla/internal/blas"
)

// Norm selects which matrix norm Lange computes.
type Norm byte

const (
	// MaxAbs is the largest absolute entry (not a consistent norm).
	MaxAbs Norm = 'M'
	// OneNorm is the maximum absolute column sum.
	OneNorm Norm = '1'
	// InfNorm is the maximum absolute row sum.
	InfNorm Norm = 'I'
	// FrobeniusNorm is the square root of the sum of squares.
	FrobeniusNorm Norm = 'F'
)

// blockSize is the panel width used by the blocked factorizations. 64
// balances level-3 fraction against panel latency for the pure-Go kernels.
const blockSize = 64

// NotPositiveDefiniteError reports that a Cholesky factorization encountered
// a non-positive leading minor.
type NotPositiveDefiniteError struct {
	// Index is the zero-based order of the first non-positive-definite
	// leading minor.
	Index int
}

func (e *NotPositiveDefiniteError) Error() string {
	return fmt.Sprintf("lapack: matrix is not positive definite (leading minor %d)", e.Index)
}

// SingularError reports an exactly singular matrix: U[Index][Index] == 0 in
// an LU factorization, or a zero diagonal in a triangular solve.
type SingularError struct {
	// Index is the zero-based position of the zero pivot.
	Index int
}

func (e *SingularError) Error() string {
	return fmt.Sprintf("lapack: matrix is singular (zero pivot at %d)", e.Index)
}

// Lacpy copies the m×n matrix A into B. uplo selects all of A (use
// the zero value General), or only the Upper/Lower triangle.
func Lacpy[T blas.Float](uplo blas.Uplo, m, n int, a []T, lda int, b []T, ldb int) {
	for j := 0; j < n; j++ {
		lo, hi := 0, m
		switch uplo {
		case blas.Upper:
			hi = min(j+1, m)
		case blas.Lower:
			lo = min(j, m)
		}
		copy(b[lo+j*ldb:hi+j*ldb], a[lo+j*lda:hi+j*lda])
	}
}

// General is the Uplo value Lacpy and Laset interpret as "the whole
// matrix".
const General blas.Uplo = 'G'

// Laset sets the selected part of the m×n matrix A to offdiag off the
// diagonal and diag on it.
func Laset[T blas.Float](uplo blas.Uplo, m, n int, offdiag, diag T, a []T, lda int) {
	for j := 0; j < n; j++ {
		lo, hi := 0, m
		switch uplo {
		case blas.Upper:
			hi = min(j, m)
		case blas.Lower:
			lo = min(j+1, m)
		}
		col := a[j*lda:]
		for i := lo; i < hi; i++ {
			col[i] = offdiag
		}
	}
	for i := 0; i < min(m, n); i++ {
		a[i+i*lda] = diag
	}
}

// Lange computes the selected norm of the m×n matrix A.
func Lange[T blas.Float](norm Norm, m, n int, a []T, lda int) T {
	if m == 0 || n == 0 {
		return 0
	}
	switch norm {
	case MaxAbs:
		var mx T
		for j := 0; j < n; j++ {
			for _, v := range a[j*lda : j*lda+m] {
				v = magnitude(v)
				if v > mx {
					mx = v
				}
			}
		}
		return mx
	case OneNorm:
		var mx T
		for j := 0; j < n; j++ {
			var s T
			for _, v := range a[j*lda : j*lda+m] {
				v = magnitude(v)
				s += v
			}
			if s > mx {
				mx = s
			}
		}
		return mx
	case InfNorm:
		rows := make([]T, m)
		for j := 0; j < n; j++ {
			for i, v := range a[j*lda : j*lda+m] {
				v = magnitude(v)
				rows[i] += v
			}
		}
		var mx T
		for _, s := range rows {
			if s > mx {
				mx = s
			}
		}
		return mx
	case FrobeniusNorm:
		// Column-by-column scaled accumulation via Nrm2 would rescan; a
		// single scaled pass suffices here.
		var scale, ssq T = 0, 1
		for j := 0; j < n; j++ {
			for _, v := range a[j*lda : j*lda+m] {
				if v == 0 {
					continue
				}
				if v < 0 {
					v = -v
				}
				if scale < v {
					r := scale / v
					ssq = 1 + ssq*r*r
					scale = v
				} else {
					r := v / scale
					ssq += r * r
				}
			}
		}
		return scale * sqrt(ssq)
	default:
		panic(fmt.Sprintf("lapack: invalid norm %q", byte(norm)))
	}
}

// magnitude is |v| by clearing the sign bit rather than by a branch, which
// the signs of random entries mispredict half the time: at n = 1024 the
// branch made Lange's ∞-norm pass about six times slower.
func magnitude[T blas.Float](v T) T {
	return T(math.Abs(float64(v)))
}

// Lansy computes the selected norm of the n×n symmetric matrix A of which
// only the uplo triangle is stored.
func Lansy[T blas.Float](norm Norm, uplo blas.Uplo, n int, a []T, lda int) T {
	if n == 0 {
		return 0
	}
	switch norm {
	case OneNorm, InfNorm:
		// Row and column sums coincide for symmetric matrices.
		// Column j's off-diagonal entries add to sums[j], held in a
		// register, and to their own rows' sums, in the stored order.
		sums := make([]T, n)
		for j := 0; j < n; j++ {
			col := a[j*lda : j*lda+n]
			off, rows := col[j+1:], sums[j+1:]
			s := sums[j] + magnitude(col[j])
			if uplo == blas.Upper {
				off, rows, s = col[:j], sums[:j], sums[j]
			}
			rows = rows[:len(off)]
			for i, v := range off {
				v = magnitude(v)
				s += v
				rows[i] += v
			}
			if uplo == blas.Upper {
				s += magnitude(col[j])
			}
			sums[j] = s
		}
		var mx T
		for _, s := range sums {
			if s > mx {
				mx = s
			}
		}
		return mx
	case MaxAbs:
		var mx T
		for j := 0; j < n; j++ {
			lo, hi := 0, j+1
			if uplo == blas.Lower {
				lo, hi = j, n
			}
			for i := lo; i < hi; i++ {
				v := magnitude(a[i+j*lda])
				if v > mx {
					mx = v
				}
			}
		}
		return mx
	case FrobeniusNorm:
		var s T
		for j := 0; j < n; j++ {
			lo, hi := 0, j+1
			if uplo == blas.Lower {
				lo, hi = j, n
			}
			for i := lo; i < hi; i++ {
				v := a[i+j*lda]
				if i == j {
					s += v * v
				} else {
					s += 2 * v * v
				}
			}
		}
		return sqrt(s)
	default:
		panic(fmt.Sprintf("lapack: invalid norm %q for Lansy", byte(norm)))
	}
}
