package ft

import (
	"fmt"
	"math"
	"sync/atomic"
)

// This file provides the tile-granular checksum primitives behind the
// ABFT guards of the tile factorizations (core.Protect, core.Resume):
// per-tile plain and weighted column sums in a 2×n row-pair layout that
// BLAS kernels can carry through trsm and gemm updates, verification that
// locates single corrupted entries per column, and in-place correction.
//
// Layout: sums[2j] = Σᵢ a[i,j] (plain), sums[2j+1] = Σᵢ (i+1)·a[i,j]
// (weighted). The pair is exactly a two-row column-major matrix with
// leading dimension 2, so for a right-side update A ← A·M the checksums
// follow with the same BLAS call on the 2×n pair — that is what keeps them
// independent witnesses of the tile's entries during a factorization.

// ColSums writes the plain and weighted column checksums of the m×n
// column-major tile a (leading dimension lda) into sums, which must have
// at least 2n elements.
func ColSums(m, n int, a []float64, lda int, sums []float64) {
	for j := 0; j < n; j++ {
		col := a[j*lda : j*lda+m]
		var s, ws float64
		for i, v := range col {
			s += v
			ws += float64(i+1) * v
		}
		sums[2*j] = s
		sums[2*j+1] = ws
	}
}

// TrilColSums is ColSums restricted to the lower triangle (i ≥ j) of the
// leading n×n block — the storage region of a Cholesky factor tile, whose
// strict upper triangle holds stale values that must not pollute the
// checksums.
func TrilColSums(n int, a []float64, lda int, sums []float64) {
	for j := 0; j < n; j++ {
		var s, ws float64
		for i := j; i < n; i++ {
			v := a[i+j*lda]
			s += v
			ws += float64(i+1) * v
		}
		sums[2*j] = s
		sums[2*j+1] = ws
	}
}

// VerifyColSums recomputes the column sums of the m×n tile a and compares
// them to the carried sums, returning one Fault per column whose plain-sum
// discrepancy exceeds tol. The weighted sum locates the corrupted row
// (single-error model: dw/ds = row+1); a ratio outside [0, m) marks the
// fault unlocatable with Row = -1, in which case Delta still reports the
// column's discrepancy but CorrectColSums will skip it.
func VerifyColSums(m, n int, a []float64, lda int, sums []float64, tol float64) []Fault {
	return verifySums(m, n, a, lda, sums, tol, false)
}

// VerifyTrilColSums is VerifyColSums against TrilColSums witnesses: only
// the lower triangle is summed, and a located row above the diagonal is
// unlocatable (the checksums carry no information about that region).
func VerifyTrilColSums(n int, a []float64, lda int, sums []float64, tol float64) []Fault {
	return verifySums(n, n, a, lda, sums, tol, true)
}

func verifySums(m, n int, a []float64, lda int, sums []float64, tol float64, tril bool) []Fault {
	var faults []Fault
	for j := 0; j < n; j++ {
		lo := 0
		if tril {
			lo = j
		}
		var s, ws float64
		for i := lo; i < m; i++ {
			v := a[i+j*lda]
			s += v
			ws += float64(i+1) * v
		}
		ds := s - sums[2*j]
		dw := ws - sums[2*j+1]
		if math.Abs(ds) <= tol || math.IsNaN(ds) {
			if !math.IsNaN(ds) {
				continue
			}
			// A NaN in the column: unlocatable by the ratio test.
			faults = append(faults, Fault{Row: -1, Col: j, Delta: ds})
			continue
		}
		row := int(math.Round(dw/ds)) - 1
		if row < lo || row >= m {
			row = -1
		}
		faults = append(faults, Fault{Row: row, Col: j, Delta: ds})
	}
	return faults
}

// CorrectColSums repairs located faults in the tile in place (subtracting
// each Delta at its located entry) and returns how many it corrected.
// Unlocatable faults (Row < 0) are skipped.
func CorrectColSums(a []float64, lda int, faults []Fault) int {
	c := 0
	for _, f := range faults {
		if f.Row < 0 {
			continue
		}
		a[f.Row+f.Col*lda] -= f.Delta
		c++
	}
	return c
}

// Stats accumulates fault-tolerance event counts across the tasks of a
// resilient factorization. All fields are updated atomically; a nil *Stats
// is accepted everywhere and counts nothing.
type Stats struct {
	// Injected counts corruptions deliberately introduced (by a test hook
	// or the exabench fault driver).
	Injected atomic.Int64
	// Detected counts verification passes that found at least one fault.
	Detected atomic.Int64
	// Corrected counts individual faults repaired in place.
	Corrected atomic.Int64
	// Unlocated counts faults detected but not locatable under the
	// single-error-per-column model (these fail the factorization).
	Unlocated atomic.Int64
	// TilesReconstructed counts whole tiles rebuilt from a row parity
	// group after a hard loss (see RowErasure.ReconstructTile).
	TilesReconstructed atomic.Int64
}

// note records one verification outcome on s; nil-safe.
func (s *Stats) note(faults []Fault, corrected int) {
	if s == nil || len(faults) == 0 {
		return
	}
	s.Detected.Add(1)
	s.Corrected.Add(int64(corrected))
	s.Unlocated.Add(int64(len(faults) - corrected))
}

// Note records one verification outcome: a non-empty fault list counts as
// one detection, corrected faults and the unlocatable remainder are
// accumulated. Safe on a nil receiver.
func (s *Stats) Note(faults []Fault, corrected int) { s.note(faults, corrected) }

// CorruptionError reports that a verification task found checksum
// violations in one tile. The faults have already been corrected in place
// where locatable; the error is deliberately retryable (not wrapped in
// sched.Permanent) so a scheduler retry re-runs the verification, which
// passes once the correction holds — the "re-execution through the retry
// path" of the recovery design. Unlocatable faults keep failing the
// re-verification and surface as a permanent task failure.
type CorruptionError struct {
	// TileRow and TileCol locate the tile in the tile grid; -1/-1 means a
	// whole-factor sweep.
	TileRow, TileCol int
	// Faults are the detected per-column faults.
	Faults []Fault
	// Corrected is how many of them were repaired in place.
	Corrected int
	// Reconstructed reports that the whole tile was rebuilt from its row
	// parity group instead of per-entry correction — the erasure path taken
	// when the fault pattern looks like wholesale loss rather than a flip.
	Reconstructed bool
}

// CorrectedInPlace reports whether at least one fault was repaired before
// the error was returned — by entry correction or whole-tile
// reconstruction. It implements sched.InPlaceCorrector, so span traces
// classify the retried verification attempt as corruption-corrected rather
// than a generic retry.
func (e *CorruptionError) CorrectedInPlace() bool { return e.Corrected > 0 || e.Reconstructed }

func (e *CorruptionError) Error() string {
	where := fmt.Sprintf("tile (%d,%d)", e.TileRow, e.TileCol)
	if e.TileRow < 0 {
		where = "final sweep"
	}
	if e.Reconstructed {
		return fmt.Sprintf("ft: %s: %d checksum fault(s), tile reconstructed from row parity",
			where, len(e.Faults))
	}
	return fmt.Sprintf("ft: %s: %d checksum fault(s), %d corrected in place",
		where, len(e.Faults), e.Corrected)
}
