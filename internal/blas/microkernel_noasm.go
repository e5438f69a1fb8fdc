//go:build !amd64

package blas

// Non-amd64 targets have no assembly kernels; the generic Go microkernels
// carry all tile shapes and the Go loops every level-1 and level-2 path.
const haveAvx2Fma = false

func microKern8x4F64Avx(kb int, ap, bp []float64, alpha float64, c []float64, ldc int) {
	panic("blas: AVX2 microkernel dispatched without assembly support")
}

func microKern16x4F32Avx(kb int, ap, bp []float32, alpha float32, c []float32, ldc int) {
	panic("blas: AVX2 microkernel dispatched without assembly support")
}

func dotF32Avx(x, y []float32) float32 {
	panic("blas: AVX2 dot kernel dispatched without assembly support")
}

func axpyF32Avx(alpha float32, x, y []float32) {
	panic("blas: AVX2 axpy kernel dispatched without assembly support")
}

func dotF64Avx(x, y []float64) float64 {
	panic("blas: AVX2 dot kernel dispatched without assembly support")
}

func axpyF64Avx(alpha float64, x, y []float64) {
	panic("blas: AVX2 axpy kernel dispatched without assembly support")
}
