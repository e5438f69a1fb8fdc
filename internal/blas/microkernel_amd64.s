//go:build amd64

#include "textflag.h"

// func microKern8x4F64Avx(kb int, ap, bp []float64, alpha float64, c []float64, ldc int)
//
// 8×4 register tile of C += α·A·B from packed slivers. Per depth step:
// two VMOVUPD loads pull one 8-row column of the packed op(A) sliver,
// four VBROADCASTSD pull the matching op(B) row, and eight VFMADD231PD
// feed the Y0–Y7 accumulators (one YMM pair per C column). The k loop is
// unrolled ×2 to amortize loop overhead. Writeback multiplies by α and
// accumulates into C column by column.
//
// Only dispatched when detectAvx2Fma() passed, see kernelFor.
TEXT ·microKern8x4F64Avx(SB), NOSPLIT, $0-96
	MOVQ kb+0(FP), CX
	MOVQ ap_base+8(FP), SI
	MOVQ bp_base+32(FP), DI
	MOVQ c_base+64(FP), DX
	MOVQ ldc+88(FP), R8
	SHLQ $3, R8              // ldc in bytes

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

	MOVQ CX, AX
	SHRQ $1, CX              // CX = kb/2 (unrolled pairs)
	JZ   tail

loop2:
	// depth step l
	VMOVUPD      (SI), Y8    // a[0:4]
	VMOVUPD      32(SI), Y9  // a[4:8]
	VBROADCASTSD (DI), Y12
	VBROADCASTSD 8(DI), Y13
	VBROADCASTSD 16(DI), Y14
	VBROADCASTSD 24(DI), Y15
	VFMADD231PD  Y8, Y12, Y0
	VFMADD231PD  Y9, Y12, Y1
	VFMADD231PD  Y8, Y13, Y2
	VFMADD231PD  Y9, Y13, Y3
	VFMADD231PD  Y8, Y14, Y4
	VFMADD231PD  Y9, Y14, Y5
	VFMADD231PD  Y8, Y15, Y6
	VFMADD231PD  Y9, Y15, Y7

	// depth step l+1
	VMOVUPD      64(SI), Y10
	VMOVUPD      96(SI), Y11
	VBROADCASTSD 32(DI), Y12
	VBROADCASTSD 40(DI), Y13
	VBROADCASTSD 48(DI), Y14
	VBROADCASTSD 56(DI), Y15
	VFMADD231PD  Y10, Y12, Y0
	VFMADD231PD  Y11, Y12, Y1
	VFMADD231PD  Y10, Y13, Y2
	VFMADD231PD  Y11, Y13, Y3
	VFMADD231PD  Y10, Y14, Y4
	VFMADD231PD  Y11, Y14, Y5
	VFMADD231PD  Y10, Y15, Y6
	VFMADD231PD  Y11, Y15, Y7

	ADDQ $128, SI
	ADDQ $64, DI
	DECQ CX
	JNZ  loop2

tail:
	ANDQ $1, AX              // odd kb → one more depth step
	JZ   writeback

	VMOVUPD      (SI), Y8
	VMOVUPD      32(SI), Y9
	VBROADCASTSD (DI), Y12
	VBROADCASTSD 8(DI), Y13
	VBROADCASTSD 16(DI), Y14
	VBROADCASTSD 24(DI), Y15
	VFMADD231PD  Y8, Y12, Y0
	VFMADD231PD  Y9, Y12, Y1
	VFMADD231PD  Y8, Y13, Y2
	VFMADD231PD  Y9, Y13, Y3
	VFMADD231PD  Y8, Y14, Y4
	VFMADD231PD  Y9, Y14, Y5
	VFMADD231PD  Y8, Y15, Y6
	VFMADD231PD  Y9, Y15, Y7

writeback:
	VBROADCASTSD alpha+56(FP), Y12

	// column 0
	VMOVUPD     (DX), Y8
	VMOVUPD     32(DX), Y9
	VFMADD231PD Y0, Y12, Y8
	VFMADD231PD Y1, Y12, Y9
	VMOVUPD     Y8, (DX)
	VMOVUPD     Y9, 32(DX)
	ADDQ        R8, DX

	// column 1
	VMOVUPD     (DX), Y8
	VMOVUPD     32(DX), Y9
	VFMADD231PD Y2, Y12, Y8
	VFMADD231PD Y3, Y12, Y9
	VMOVUPD     Y8, (DX)
	VMOVUPD     Y9, 32(DX)
	ADDQ        R8, DX

	// column 2
	VMOVUPD     (DX), Y8
	VMOVUPD     32(DX), Y9
	VFMADD231PD Y4, Y12, Y8
	VFMADD231PD Y5, Y12, Y9
	VMOVUPD     Y8, (DX)
	VMOVUPD     Y9, 32(DX)
	ADDQ        R8, DX

	// column 3
	VMOVUPD     (DX), Y8
	VMOVUPD     32(DX), Y9
	VFMADD231PD Y6, Y12, Y8
	VFMADD231PD Y7, Y12, Y9
	VMOVUPD     Y8, (DX)
	VMOVUPD     Y9, 32(DX)

	VZEROUPPER
	RET

// func microKern16x4F32Avx(kb int, ap, bp []float32, alpha float32, c []float32, ldc int)
//
// 16×4 register tile of C += α·A·B from packed float32 slivers: the 8×4
// float64 kernel at single width. Per depth step two VMOVUPS loads pull one
// 16-row column of the packed op(A) sliver, four VBROADCASTSS pull the
// matching op(B) row, and eight VFMADD231PS feed the Y0–Y7 accumulators
// (one YMM pair per C column). The k loop is unrolled ×2 and the writeback
// accumulates α times the tile into C column by column.
//
// Only dispatched when detectAvx2Fma() passed, see kernelFor.
TEXT ·microKern16x4F32Avx(SB), NOSPLIT, $0-96
	MOVQ kb+0(FP), CX
	MOVQ ap_base+8(FP), SI
	MOVQ bp_base+32(FP), DI
	MOVQ c_base+64(FP), DX
	MOVQ ldc+88(FP), R8
	SHLQ $2, R8              // ldc in bytes

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7

	MOVQ CX, AX
	SHRQ $1, CX              // CX = kb/2 (unrolled pairs)
	JZ   tail32

loop32:
	// depth step l
	VMOVUPS      (SI), Y8    // a[0:8]
	VMOVUPS      32(SI), Y9  // a[8:16]
	VBROADCASTSS (DI), Y12
	VBROADCASTSS 4(DI), Y13
	VBROADCASTSS 8(DI), Y14
	VBROADCASTSS 12(DI), Y15
	VFMADD231PS  Y8, Y12, Y0
	VFMADD231PS  Y9, Y12, Y1
	VFMADD231PS  Y8, Y13, Y2
	VFMADD231PS  Y9, Y13, Y3
	VFMADD231PS  Y8, Y14, Y4
	VFMADD231PS  Y9, Y14, Y5
	VFMADD231PS  Y8, Y15, Y6
	VFMADD231PS  Y9, Y15, Y7

	// depth step l+1
	VMOVUPS      64(SI), Y10
	VMOVUPS      96(SI), Y11
	VBROADCASTSS 16(DI), Y12
	VBROADCASTSS 20(DI), Y13
	VBROADCASTSS 24(DI), Y14
	VBROADCASTSS 28(DI), Y15
	VFMADD231PS  Y10, Y12, Y0
	VFMADD231PS  Y11, Y12, Y1
	VFMADD231PS  Y10, Y13, Y2
	VFMADD231PS  Y11, Y13, Y3
	VFMADD231PS  Y10, Y14, Y4
	VFMADD231PS  Y11, Y14, Y5
	VFMADD231PS  Y10, Y15, Y6
	VFMADD231PS  Y11, Y15, Y7

	ADDQ $128, SI
	ADDQ $32, DI
	DECQ CX
	JNZ  loop32

tail32:
	ANDQ $1, AX              // odd kb → one more depth step
	JZ   writeback32

	VMOVUPS      (SI), Y8
	VMOVUPS      32(SI), Y9
	VBROADCASTSS (DI), Y12
	VBROADCASTSS 4(DI), Y13
	VBROADCASTSS 8(DI), Y14
	VBROADCASTSS 12(DI), Y15
	VFMADD231PS  Y8, Y12, Y0
	VFMADD231PS  Y9, Y12, Y1
	VFMADD231PS  Y8, Y13, Y2
	VFMADD231PS  Y9, Y13, Y3
	VFMADD231PS  Y8, Y14, Y4
	VFMADD231PS  Y9, Y14, Y5
	VFMADD231PS  Y8, Y15, Y6
	VFMADD231PS  Y9, Y15, Y7

writeback32:
	VBROADCASTSS alpha+56(FP), Y12

	// column 0
	VMOVUPS     (DX), Y8
	VMOVUPS     32(DX), Y9
	VFMADD231PS Y0, Y12, Y8
	VFMADD231PS Y1, Y12, Y9
	VMOVUPS     Y8, (DX)
	VMOVUPS     Y9, 32(DX)
	ADDQ        R8, DX

	// column 1
	VMOVUPS     (DX), Y8
	VMOVUPS     32(DX), Y9
	VFMADD231PS Y2, Y12, Y8
	VFMADD231PS Y3, Y12, Y9
	VMOVUPS     Y8, (DX)
	VMOVUPS     Y9, 32(DX)
	ADDQ        R8, DX

	// column 2
	VMOVUPS     (DX), Y8
	VMOVUPS     32(DX), Y9
	VFMADD231PS Y4, Y12, Y8
	VFMADD231PS Y5, Y12, Y9
	VMOVUPS     Y8, (DX)
	VMOVUPS     Y9, 32(DX)
	ADDQ        R8, DX

	// column 3
	VMOVUPS     (DX), Y8
	VMOVUPS     32(DX), Y9
	VFMADD231PS Y6, Y12, Y8
	VFMADD231PS Y7, Y12, Y9
	VMOVUPS     Y8, (DX)
	VMOVUPS     Y9, 32(DX)

	VZEROUPPER
	RET

// func dotF32Avx(x, y []float32) float32
//
// Σ x[i]·y[i] over len(x) elements. Thirty-two elements per step go into
// four 8-lane accumulators (Y0–Y3), then eight at a time into Y0; the
// accumulators are summed (Y0+Y1)+(Y2+Y3), the eight lanes folded in
// halves, and the last len(x) mod 8 elements are added one at a time with
// scalar FMAs. Loads are unaligned and nothing is peeled for alignment, so
// the order of the sums depends on the length alone, never on where the
// slices start. y must hold at least len(x) elements.
TEXT ·dotF32Avx(SB), NOSPLIT, $0-52
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), CX
	MOVQ y_base+24(FP), DI
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3

dot32loop32:
	CMPQ CX, $32
	JLT  dot32loop8
	VMOVUPS     (SI), Y4
	VMOVUPS     32(SI), Y5
	VMOVUPS     64(SI), Y6
	VMOVUPS     96(SI), Y7
	VFMADD231PS (DI), Y4, Y0
	VFMADD231PS 32(DI), Y5, Y1
	VFMADD231PS 64(DI), Y6, Y2
	VFMADD231PS 96(DI), Y7, Y3
	ADDQ $128, SI
	ADDQ $128, DI
	SUBQ $32, CX
	JMP  dot32loop32

dot32loop8:
	CMPQ CX, $8
	JLT  dot32reduce
	VMOVUPS     (SI), Y4
	VFMADD231PS (DI), Y4, Y0
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $8, CX
	JMP  dot32loop8

dot32reduce:
	VADDPS       Y1, Y0, Y0
	VADDPS       Y3, Y2, Y2
	VADDPS       Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPS       X1, X0, X0  // lanes i and i+4
	VMOVHLPS     X0, X1, X1
	VADDPS       X1, X0, X0  // lanes i and i+2
	VMOVSHDUP    X0, X1
	VADDSS       X1, X0, X0  // lanes 0 and 1

dot32tail:
	TESTQ CX, CX
	JZ    dot32done
	VMOVSS      (SI), X1
	VFMADD231SS (DI), X1, X0
	ADDQ $4, SI
	ADDQ $4, DI
	DECQ CX
	JMP  dot32tail

dot32done:
	VMOVSS X0, ret+48(FP)
	VZEROUPPER
	RET

// func axpyF32Avx(alpha float32, x, y []float32)
//
// y[i] ← fma(α, x[i], y[i]) for i < len(x): thirty-two elements per step,
// then eight, then one at a time with a scalar FMA. Every element takes
// the same single rounding, so the result does not depend on the length
// or on where the slices start. y must hold at least len(x) elements.
TEXT ·axpyF32Avx(SB), NOSPLIT, $0-56
	VBROADCASTSS alpha+0(FP), Y0
	MOVQ x_base+8(FP), SI
	MOVQ x_len+16(FP), CX
	MOVQ y_base+32(FP), DI

axpy32loop32:
	CMPQ CX, $32
	JLT  axpy32loop8
	VMOVUPS     (DI), Y4
	VMOVUPS     32(DI), Y5
	VMOVUPS     64(DI), Y6
	VMOVUPS     96(DI), Y7
	VFMADD231PS (SI), Y0, Y4
	VFMADD231PS 32(SI), Y0, Y5
	VFMADD231PS 64(SI), Y0, Y6
	VFMADD231PS 96(SI), Y0, Y7
	VMOVUPS     Y4, (DI)
	VMOVUPS     Y5, 32(DI)
	VMOVUPS     Y6, 64(DI)
	VMOVUPS     Y7, 96(DI)
	ADDQ $128, SI
	ADDQ $128, DI
	SUBQ $32, CX
	JMP  axpy32loop32

axpy32loop8:
	CMPQ CX, $8
	JLT  axpy32tail
	VMOVUPS     (DI), Y4
	VFMADD231PS (SI), Y0, Y4
	VMOVUPS     Y4, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $8, CX
	JMP  axpy32loop8

axpy32tail:
	TESTQ CX, CX
	JZ    axpy32done
	VMOVSS      (DI), X4
	VFMADD231SS (SI), X0, X4
	VMOVSS      X4, (DI)
	ADDQ $4, SI
	ADDQ $4, DI
	DECQ CX
	JMP  axpy32tail

axpy32done:
	VZEROUPPER
	RET

// func dotF64Avx(x, y []float64) float64
//
// dotF32Avx at double width: sixteen elements per step into four 4-lane
// accumulators, then four at a time into Y0, the same fixed reduction, and
// the last len(x) mod 4 elements by scalar FMAs.
TEXT ·dotF64Avx(SB), NOSPLIT, $0-56
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), CX
	MOVQ y_base+24(FP), DI
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3

dot64loop16:
	CMPQ CX, $16
	JLT  dot64loop4
	VMOVUPD     (SI), Y4
	VMOVUPD     32(SI), Y5
	VMOVUPD     64(SI), Y6
	VMOVUPD     96(SI), Y7
	VFMADD231PD (DI), Y4, Y0
	VFMADD231PD 32(DI), Y5, Y1
	VFMADD231PD 64(DI), Y6, Y2
	VFMADD231PD 96(DI), Y7, Y3
	ADDQ $128, SI
	ADDQ $128, DI
	SUBQ $16, CX
	JMP  dot64loop16

dot64loop4:
	CMPQ CX, $4
	JLT  dot64reduce
	VMOVUPD     (SI), Y4
	VFMADD231PD (DI), Y4, Y0
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $4, CX
	JMP  dot64loop4

dot64reduce:
	VADDPD       Y1, Y0, Y0
	VADDPD       Y3, Y2, Y2
	VADDPD       Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPD       X1, X0, X0  // lanes i and i+2
	VUNPCKHPD    X0, X0, X1
	VADDSD       X1, X0, X0  // lanes 0 and 1

dot64tail:
	TESTQ CX, CX
	JZ    dot64done
	VMOVSD      (SI), X1
	VFMADD231SD (DI), X1, X0
	ADDQ $8, SI
	ADDQ $8, DI
	DECQ CX
	JMP  dot64tail

dot64done:
	VMOVSD X0, ret+48(FP)
	VZEROUPPER
	RET

// func axpyF64Avx(alpha float64, x, y []float64)
//
// axpyF32Avx at double width: sixteen elements per step, then four, then
// one at a time, each y[i] ← fma(α, x[i], y[i]).
TEXT ·axpyF64Avx(SB), NOSPLIT, $0-56
	VBROADCASTSD alpha+0(FP), Y0
	MOVQ x_base+8(FP), SI
	MOVQ x_len+16(FP), CX
	MOVQ y_base+32(FP), DI

axpy64loop16:
	CMPQ CX, $16
	JLT  axpy64loop4
	VMOVUPD     (DI), Y4
	VMOVUPD     32(DI), Y5
	VMOVUPD     64(DI), Y6
	VMOVUPD     96(DI), Y7
	VFMADD231PD (SI), Y0, Y4
	VFMADD231PD 32(SI), Y0, Y5
	VFMADD231PD 64(SI), Y0, Y6
	VFMADD231PD 96(SI), Y0, Y7
	VMOVUPD     Y4, (DI)
	VMOVUPD     Y5, 32(DI)
	VMOVUPD     Y6, 64(DI)
	VMOVUPD     Y7, 96(DI)
	ADDQ $128, SI
	ADDQ $128, DI
	SUBQ $16, CX
	JMP  axpy64loop16

axpy64loop4:
	CMPQ CX, $4
	JLT  axpy64tail
	VMOVUPD     (DI), Y4
	VFMADD231PD (SI), Y0, Y4
	VMOVUPD     Y4, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $4, CX
	JMP  axpy64loop4

axpy64tail:
	TESTQ CX, CX
	JZ    axpy64done
	VMOVSD      (DI), X4
	VFMADD231SD (SI), X0, X4
	VMOVSD      X4, (DI)
	ADDQ $8, SI
	ADDQ $8, DI
	DECQ CX
	JMP  axpy64tail

axpy64done:
	VZEROUPPER
	RET

// func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidex(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
