package blas

// Register-tile microkernels for the packed GEMM path. Each computes one
// mr×nr tile of C += α·op(A)·op(B) from an mr-row sliver of packed op(A)
// (column-major within the sliver, see packA) and an nr-column sliver of
// packed op(B) (row-major within the sliver, see packB), keeping the mr·nr
// partial sums in local variables so the inner loop touches memory only for
// the mr+nr streaming panel reads. Slivers are zero-padded by packing, so
// the kernels never branch on edges; callers route partial tiles through a
// zeroed scratch tile instead.

// Maximum compiled register-tile footprint; the macro kernel's edge scratch
// is sized by these.
const (
	maxMR = 16
	maxNR = 4
)

// microKernel is the signature shared by all register-tile kernels: an
// mr×nr tile at c (leading dimension ldc) accumulates α times the sliver
// product over kb depth steps.
type microKernel[T Float] func(kb int, ap, bp []T, alpha T, c []T, ldc int)

// The assembly kernels as interface values. A func value of a plain
// function is a static closure, so boxing it here and asserting it back to
// microKernel[T] in kernelFor allocates nothing; a generic wrapper
// instantiated per call site would need a closure over its dictionary.
var (
	kern8x4F64  any = microKernel[float64](microKern8x4F64Avx)
	kern16x4F32 any = microKernel[float32](microKern16x4F32Avx)
)

// kernelFor selects the compiled microkernel for a register-tile height
// that registerTile returned: mr == 8 is the float64 AVX2+FMA kernel and
// mr == 16 the float32 one (the assertion panics if T is not that type);
// everything else takes the generic 4×4 kernel, which the compiler
// specializes per element type.
func kernelFor[T Float](mr int) microKernel[T] {
	switch mr {
	case 8:
		return kern8x4F64.(microKernel[T])
	case 16:
		return kern16x4F32.(microKernel[T])
	}
	return microKern4x4[T]
}

// is64 and is32 report whether T is exactly float64 or float32. Named
// ~float64 and ~float32 types report false and use the generic kernels.
func is64[T Float]() bool {
	var z T
	_, ok := any(z).(float64)
	return ok
}

func is32[T Float]() bool {
	var z T
	_, ok := any(z).(float32)
	return ok
}

// microKern4x4 is the generic 4×4 register-tile kernel.
func microKern4x4[T Float](kb int, ap, bp []T, alpha T, c []T, ldc int) {
	var (
		c00, c10, c20, c30 T
		c01, c11, c21, c31 T
		c02, c12, c22, c32 T
		c03, c13, c23, c33 T
	)
	for l := 0; l < kb; l++ {
		a := ap[l*4 : l*4+4]
		b := bp[l*4 : l*4+4]
		a0, a1, a2, a3 := a[0], a[1], a[2], a[3]
		b0, b1, b2, b3 := b[0], b[1], b[2], b[3]
		c00 += a0 * b0
		c10 += a1 * b0
		c20 += a2 * b0
		c30 += a3 * b0
		c01 += a0 * b1
		c11 += a1 * b1
		c21 += a2 * b1
		c31 += a3 * b1
		c02 += a0 * b2
		c12 += a1 * b2
		c22 += a2 * b2
		c32 += a3 * b2
		c03 += a0 * b3
		c13 += a1 * b3
		c23 += a2 * b3
		c33 += a3 * b3
	}
	d0 := c[0:4]
	d1 := c[ldc : ldc+4]
	d2 := c[2*ldc : 2*ldc+4]
	d3 := c[3*ldc : 3*ldc+4]
	d0[0] += alpha * c00
	d0[1] += alpha * c10
	d0[2] += alpha * c20
	d0[3] += alpha * c30
	d1[0] += alpha * c01
	d1[1] += alpha * c11
	d1[2] += alpha * c21
	d1[3] += alpha * c31
	d2[0] += alpha * c02
	d2[1] += alpha * c12
	d2[2] += alpha * c22
	d2[3] += alpha * c32
	d3[0] += alpha * c03
	d3[1] += alpha * c13
	d3[2] += alpha * c23
	d3[3] += alpha * c33
}
