package core

import (
	"time"

	"exadla/internal/metrics"
)

// Phase time split for the tile factorizations, in the default metrics
// registry:
//
//	core.panel_ns   — panel kernels on the critical path (potrf, getrf,
//	                  getrfnp, geqrt, tsqrt)
//	core.solve_ns   — panel-application solves (trsm, swptrsm, ltrsm,
//	                  utrsm, unmqr)
//	core.update_ns  — trailing-matrix updates (gemm, syrk, lgemm, tsmqr)
//
// The panel:update ratio is the headline scheduling diagnostic: panel work
// is the serial spine of the DAG, update work is what the runtime overlaps
// against it, so a high panel share at low worker occupancy indicates a
// critical-path (not bandwidth) bottleneck.
var (
	panelNs  = metrics.Default().Counter("core.panel_ns")
	solveNs  = metrics.Default().Counter("core.solve_ns")
	updateNs = metrics.Default().Counter("core.update_ns")
)

// timed wraps a task body so its wall time lands on the given phase
// counter. The wrapper is built once at submission; with metrics disabled
// it adds a single atomic load per task execution.
func timed(phase *metrics.Counter, fn func()) func() {
	return func() {
		if !metrics.Enabled() {
			fn()
			return
		}
		start := time.Now()
		fn()
		phase.Add(time.Since(start).Nanoseconds())
	}
}
