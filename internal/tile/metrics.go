package tile

import (
	"time"

	"exadla/internal/metrics"
)

// Layout-conversion accounting in the default metrics registry:
//
//	tile.convert_ns     — wall time spent copying tiles between column-major
//	                      and tiled layout, summed over tiles and goroutines
//	tile.convert_elems  — elements moved by those copies
//
// Every tile fill of a deferred matrix (FromColMajor fills them all in
// turn) and every TileTo (ToColMajor calls it per tile) adds to both. The
// one-shot solvers run those copies as convert and gather tasks of their
// walk, spread over the workers, so there tile.convert_ns is task time, not
// a serial prologue; the ratio to scheduler busy time still shows what the
// column-major interface costs an application that keeps data tiled end
// to end.
var (
	convertNs    = metrics.Default().Counter("tile.convert_ns")
	convertElems = metrics.Default().Counter("tile.convert_elems")
)

// convertDone records one finished layout conversion of elems elements
// started at start (zero start means metrics were disabled at entry).
func convertDone(start time.Time, elems int64) {
	if start.IsZero() {
		return
	}
	convertNs.Add(time.Since(start).Nanoseconds())
	convertElems.Add(elems)
}

// convertStart returns the conversion start time, or the zero time when
// metrics are disabled so the exit path is free.
func convertStart() time.Time {
	if !metrics.Enabled() {
		return time.Time{}
	}
	return time.Now()
}
