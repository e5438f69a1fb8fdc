//go:build !amd64

package blas

// Non-amd64 targets have no assembly kernels; the generic Go microkernels
// carry all tile shapes.
const haveAvx2Fma = false

func microKern8x4F64Avx(kb int, ap, bp []float64, alpha float64, c []float64, ldc int) {
	panic("blas: AVX2 microkernel dispatched without assembly support")
}

func microKern16x4F32Avx(kb int, ap, bp []float32, alpha float32, c []float32, ldc int) {
	panic("blas: AVX2 microkernel dispatched without assembly support")
}
