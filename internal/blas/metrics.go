package blas

import "exadla/internal/metrics"

// Per-kernel flop and wall-time accounting for the level-3 BLAS, feeding
// the "blas.<kernel>.flops" / ".ns" counters and the derived ".gflops"
// gauge in the default metrics registry. The handles are resolved once at
// init; with metrics disabled (the default) each instrumented call costs a
// single atomic load, and recording happens per kernel invocation — never
// inside the compute loops.
//
// Accounting rules, kept truthful by tests:
//   - the per-kernel flop counters record only product work actually
//     performed (2mnk for Gemm); early-out paths (α == 0, k == 0) charge
//     zero, so GF/s gauges never report work that never ran;
//   - Gemm's β-scaling pass (m·n multiplies) is charged to the separate
//     "blas.gemm.scale_flops" counter, never to the product counter;
//   - "blas.pack.bytes" counts the bytes packA and packB write, whether into
//     a product's own buffers or into a shared Packed; like the flops it is
//     charged once per call.
//
// Syrk, Trmm and Trsm drive the microkernel directly and each keeps its own
// counter, so nothing is double-counted.
var (
	gemmMetrics    = metrics.Default().Kernel("blas.gemm")
	gemmScaleFlops = metrics.Default().Counter("blas.gemm.scale_flops")
	syrkMetrics    = metrics.Default().Kernel("blas.syrk")
	trmmMetrics    = metrics.Default().Kernel("blas.trmm")
	trsmMetrics    = metrics.Default().Kernel("blas.trsm")
	packBytes      = metrics.Default().Counter("blas.pack.bytes")
)
