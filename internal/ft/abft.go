// Package ft implements algorithm-based fault tolerance (ABFT) in the
// Huang–Abraham tradition: data carries plain and weighted checksums that
// the computation maintains as a by-product of its own arithmetic, so a
// silent data corruption is detected, located, and corrected from the
// checksum relations — without checkpoints and at O(n²) overhead on an
// O(n³) computation. "At extreme scale, faults are the norm."
//
// The package holds the primitives, not the factorizations: ProtectedGemm
// (a checksum-extended GEMM), the per-tile column sums that core.Protect's
// guards carry through the tile Cholesky and record for the LUs, row
// erasure parity for lost tiles, CRC64 payload checksums, and the Injector
// that experiments and tests use to model soft errors.
package ft

import (
	"fmt"
	"math"

	"exadla/internal/blas"
)

// Fault describes one detected (and correctable) corruption.
type Fault struct {
	// Row and Col locate the corrupted entry.
	Row, Col int
	// Delta is the detected corruption (actual − expected); subtracting it
	// repairs the entry.
	Delta float64
}

func (f Fault) String() string {
	return fmt.Sprintf("fault at (%d,%d) Δ=%g", f.Row, f.Col, f.Delta)
}

// detectTol is the legacy absolute tolerance separating rounding noise
// from real corruption in checksum comparisons. It survives as the floor
// of DetectTol, so well-scaled problems keep their historical behaviour.
const detectTol = 1e-8

// eps is the double-precision unit roundoff.
const eps = 0x1p-52

// detectFactor is the headroom multiplier over the worst-case checksum
// rounding drift ‖A‖·n·ε that DetectTol allows before declaring
// corruption.
const detectFactor = 64

// DetectTol returns the threshold separating checksum rounding drift from
// real corruption for an n-dimensional computation on data of the given
// norm (any consistent norm — max-abs is fine; pass 0 if unknown). The
// scaled term ‖A‖·n·ε·factor tracks how legitimate drift grows with
// problem size and data magnitude, so badly scaled matrices do not trip
// false positives; the legacy constant detectTol (times n) remains the
// floor, so the historical behaviour is the default for small norms.
func DetectTol(norm float64, n int) float64 {
	if n < 1 {
		n = 1
	}
	tol := norm * float64(n) * detectFactor * eps
	if floor := detectTol * float64(n); tol < floor {
		tol = floor
	}
	return tol
}

// ProtectedGemm computes C = A·B (A m×k, B k×n) with Huang–Abraham
// checksums: A is extended with plain and row-weighted checksum rows, so
// the product carries column checksums of C. Verify the result with
// Verify, which locates single corrupted entries per column by the tile
// verifier's rule (VerifyColSums).
type ProtectedGemm struct {
	M, N, K int
	// C is the m×n product.
	C []float64
	// Sums carries C's column checksums in ColSums' layout: Sums[2j] = eᵀC
	// and Sums[2j+1] = wᵀC (w_i = i+1) for column j.
	Sums []float64
	// Norm bounds the magnitude of C's entries (max|A|·max|B|·k), set by
	// Gemm and consumed by Verify's scaled detection tolerance. Zero means
	// unknown: Verify then uses DetectTol's legacy floor.
	Norm float64
}

// Gemm multiplies with checksum protection. The checksum rows are computed
// through the same inner products as C itself (an extended multiplication),
// not by post-hoc summation — that is what makes them independent witnesses
// of C's entries.
func Gemm(m, n, k int, a []float64, lda int, b []float64, ldb int) *ProtectedGemm {
	// Extended A: (m+2)×k with row m = eᵀA, row m+1 = wᵀA.
	ext := make([]float64, (m+2)*k)
	var maxA, maxB float64
	for j := 0; j < k; j++ {
		col := a[j*lda : j*lda+m]
		var s, ws float64
		for i, v := range col {
			ext[i+j*(m+2)] = v
			s += v
			ws += float64(i+1) * v
			if av := math.Abs(v); av > maxA {
				maxA = av
			}
		}
		ext[m+j*(m+2)] = s
		ext[m+1+j*(m+2)] = ws
	}
	for j := 0; j < n; j++ {
		for i := 0; i < k; i++ {
			if av := math.Abs(b[i+j*ldb]); av > maxB {
				maxB = av
			}
		}
	}
	cext := make([]float64, (m+2)*n)
	blas.Gemm(blas.NoTrans, blas.NoTrans, m+2, n, k, 1, ext, m+2, b, ldb, 0, cext, m+2)
	p := &ProtectedGemm{M: m, N: n, K: k,
		C:    make([]float64, m*n),
		Sums: make([]float64, 2*n),
		Norm: maxA * maxB * float64(k),
	}
	for j := 0; j < n; j++ {
		copy(p.C[j*m:j*m+m], cext[j*(m+2):j*(m+2)+m])
		copy(p.Sums[2*j:2*j+2], cext[m+j*(m+2):])
	}
	return p
}

// Verify checks every column's checksums against the data, returning one
// Fault per column that fails (at most one corrupted entry per column is
// assumed, the standard ABFT fault model). A fault outside that model — a
// located row out of range, or a NaN — is reported with Row = -1. It does
// not modify C.
func (p *ProtectedGemm) Verify() []Fault {
	return VerifyColSums(p.M, p.N, p.C, p.M, p.Sums, DetectTol(p.Norm, p.M+p.K))
}

// Correct repairs the located faults in place, skipping those with
// Row = -1, and returns how many it repaired.
func (p *ProtectedGemm) Correct(faults []Fault) int {
	return CorrectColSums(p.C, p.M, faults)
}
