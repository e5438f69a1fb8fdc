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
