// Package ft implements algorithm-based fault tolerance (ABFT) in the
// Huang–Abraham tradition: data carries plain and weighted checksums that
// the computation maintains as a by-product of its own arithmetic, so a
// silent data corruption is detected, located, and corrected from the
// checksum relations — without checkpoints and at O(n²) overhead on an
// O(n³) computation. "At extreme scale, faults are the norm."
//
// The package holds the primitives, not the factorizations: the per-tile
// column sums that core.Protect's guards carry through the tile Cholesky
// and record for the LUs, row erasure parity for lost tiles, CRC64 payload
// checksums, and the Injector that experiments and tests use to model soft
// errors.
package ft

import "fmt"

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
