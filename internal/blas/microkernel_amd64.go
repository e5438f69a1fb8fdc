//go:build amd64

package blas

// AVX2+FMA microkernel support. The assembly kernels are only dispatched when
// the CPU reports the full feature set it needs (AVX, AVX2, FMA, and OS
// support for YMM state); everything else falls back to the portable Go
// kernels. Detection runs once at init via raw CPUID/XGETBV so the package
// needs no external cpu-feature dependency.

// microKern8x4F64Avx computes an 8×4 register tile C += α·A·B from packed
// slivers using YMM FMA: two 4-wide column vectors of op(A) per depth step
// against four broadcast elements of op(B), eight accumulators resident in
// registers for the whole k loop. Implemented in microkernel_amd64.s.
//
//go:noescape
func microKern8x4F64Avx(kb int, ap, bp []float64, alpha float64, c []float64, ldc int)

// microKern16x4F32Avx is microKern8x4F64Avx at single width: a 16×4 float32
// tile, two 8-wide column vectors of op(A) per depth step.
//
//go:noescape
func microKern16x4F32Avx(kb int, ap, bp []float32, alpha float32, c []float32, ldc int)

// The unit-stride level-1 kernels (see vec.go): dot products and axpy
// updates over len(x) elements, y at least as long. Lane order depends on
// the length alone: loads are unaligned and nothing is peeled for
// alignment. Implemented in microkernel_amd64.s.
//
//go:noescape
func dotF32Avx(x, y []float32) float32

//go:noescape
func axpyF32Avx(alpha float32, x, y []float32)

//go:noescape
func dotF64Avx(x, y []float64) float64

//go:noescape
func axpyF64Avx(alpha float64, x, y []float64)

// cpuidex executes CPUID with the given leaf/subleaf.
func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads extended control register 0 (OS-enabled xsave state mask).
func xgetbv0() (eax, edx uint32)

var haveAvx2Fma = detectAvx2Fma()

func detectAvx2Fma() bool {
	maxID, _, _, _ := cpuidex(0, 0)
	if maxID < 7 {
		return false
	}
	const (
		fma     = 1 << 12
		osxsave = 1 << 27
		avx     = 1 << 28
	)
	_, _, ecx1, _ := cpuidex(1, 0)
	if ecx1&(fma|osxsave|avx) != fma|osxsave|avx {
		return false
	}
	// OS must have enabled XMM and YMM state saving.
	xeax, _ := xgetbv0()
	if xeax&0x6 != 0x6 {
		return false
	}
	const avx2 = 1 << 5
	_, ebx7, _, _ := cpuidex(7, 0)
	return ebx7&avx2 != 0
}
