package blas

import "sync/atomic"

// Blocking holds the packed-GEMM blocking parameters. The register tile
// (MR×NR) is the microkernel footprint: MR rows of packed op(A) times NR
// columns of packed op(B) accumulate in registers. The cache blocks follow
// the usual GotoBLAS/BLIS hierarchy: a KC×NC panel of op(B) is packed once
// and streamed from L3/L2 while MC×KC panels of op(A) are packed to stay
// L2-resident, so every element of A is loaded from main memory once per
// NC-wide sweep instead of once per column of C.
//
// Parameters are process-global (they describe the machine, not a problem
// instance) and may be retuned at runtime with SetGemmBlocking; cmd/exatune
// persists tuned values, and exadla.WithTuningTable installs them.
type Blocking struct {
	// MR selects the microkernel: 4 the portable 4×4 one, 8 the wide
	// AVX2+FMA one, whose tile is 8×4 in float64 and 16×4 in float32, the
	// same register footprint (see registerTile).
	MR int
	NR int // microkernel columns; supported: 4
	MC int // rows of the packed op(A) block
	KC int // shared inner (depth) block
	NC int // columns of the packed op(B) block
}

// DefaultBlocking is the untuned parameter set: the wide register tile
// (8×4 in float64, 16×4 in float32) with cache blocks sized for a typical
// ≥32 KiB L1 / ≥512 KiB L2 core. The packed op(A) block is MC·KC·8 B =
// 512 KiB of float64 and each packed op(B) sliver (KC·NR) stays under L1.
func DefaultBlocking() Blocking {
	return Blocking{MR: 8, NR: 4, MC: 256, KC: 256, NC: 1024}
}

// gemmBlocking is the installed parameter set, read once per Gemm call.
var gemmBlocking atomic.Pointer[Blocking]

func init() {
	b := DefaultBlocking()
	gemmBlocking.Store(&b)
}

// GemmBlocking returns the currently installed blocking parameters.
func GemmBlocking() Blocking { return *gemmBlocking.Load() }

// SetGemmBlocking installs new blocking parameters, clamping each field to
// the supported range first (MR to a compiled microkernel height, NR to the
// compiled width, cache blocks to sane minima), and returns the parameter
// set actually installed. Non-positive fields keep their defaults, so a
// partially-filled Blocking tunes only the fields it names.
func SetGemmBlocking(b Blocking) Blocking {
	d := DefaultBlocking()
	if b.MR <= 0 {
		b.MR = d.MR
	}
	if b.NR <= 0 {
		b.NR = d.NR
	}
	if b.MC <= 0 {
		b.MC = d.MC
	}
	if b.KC <= 0 {
		b.KC = d.KC
	}
	if b.NC <= 0 {
		b.NC = d.NC
	}
	// Only MR∈{4,8}, NR=4 microkernels are compiled; round down to the
	// nearest supported tile.
	if b.MR >= 8 {
		b.MR = 8
	} else {
		b.MR = 4
	}
	b.NR = 4
	b.MC = clampBlock(b.MC, b.MR)
	b.KC = clampBlock(b.KC, 1)
	b.NC = clampBlock(b.NC, b.NR)
	gemmBlocking.Store(&b)
	return b
}

// clampBlock bounds a cache-block dimension to [unit, 1<<16] and rounds it
// down to a multiple of unit so full register tiles divide cache blocks.
func clampBlock(v, unit int) int {
	if v < unit {
		return unit
	}
	if v > 1<<16 {
		v = 1 << 16
	}
	return v - v%unit
}
