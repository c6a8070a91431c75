// SIMD kernels for the convolutions (see infer.go): tap9 (AVX2) and tap9z
// (AVX-512) for a fused 3×3 tap bundle over a whole zero-padded band of
// convPadded, tap9z3 (AVX-512) for the same bundle into three output
// channels at once, pointwise (AVX2) and pointwisez (AVX-512) for whole
// 1×1 convolution strips, and fillRow and roundRow (AVX2) for the bias
// fill and the store of every convolution row. tap9, tap9z and tap9z3
// start their vector loop and their tail on 64-byte boundaries (PCALIGN),
// so where the linker places them does not change how the loop body is
// fetched.
//
// Bit-identity contract: every output element j computes its taps as
// sequential multiply-add steps in ascending tap order —
//     acc[j] += w[0]*x0[j] ; acc[j] += w[1]*x0[j+1] ; ... ; acc[j] += w[8]*x2[j+2]
// one fused VFMADD231 per tap. Every weight and every input is
// float32-exact (weights are widened float32 parameters, activations are
// stored rounded to float32), so each product has at most 48 significant
// bits and is exact in float64; a fused op, which rounds acc + w·x once,
// then rounds exactly what a separate multiply and add round, and the
// kernels agree bit for bit with the pure-Go loops, which keep their
// explicit conversions. Vector lanes are distinct output elements, which
// are independent accumulators, so 4- or 8-wide execution preserves
// per-element semantics exactly. Every store rounds the float64 sum to
// float32 (VCVTPD2PS, round to nearest even like Go's float32()) and
// widens it back exactly (VCVTPS2PD): activations are float64 arrays of
// float32-exact values. A folded ReLU then clamps with VMAXPD against +0,
// which returns its second source unless the first is greater, so NaN,
// −0 and negatives store +0 exactly as ReLU does.

//go:build amd64

#include "textflag.h"

// func cpuid(op, subop uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL op+0(FP), AX
	MOVL subop+4(FP), CX
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

// func tap9(acc, x0, x1, x2, w *float64, n int)
TEXT ·tap9(SB), NOSPLIT, $0-48
	MOVQ acc+0(FP), DI
	MOVQ x0+8(FP), SI
	MOVQ x1+16(FP), DX
	MOVQ x2+24(FP), CX
	MOVQ w+32(FP), R8
	MOVQ n+40(FP), R9

	// Broadcast the nine weights.
	VBROADCASTSD 0(R8), Y0
	VBROADCASTSD 8(R8), Y1
	VBROADCASTSD 16(R8), Y2
	VBROADCASTSD 24(R8), Y3
	VBROADCASTSD 32(R8), Y4
	VBROADCASTSD 40(R8), Y5
	VBROADCASTSD 48(R8), Y6
	VBROADCASTSD 56(R8), Y7
	VBROADCASTSD 64(R8), Y8

	XORQ AX, AX

	PCALIGN $64
loop4:
	LEAQ 4(AX), R10
	CMPQ R10, R9
	JGT  tail

	VMOVUPD (DI)(AX*8), Y9

	VFMADD231PD (SI)(AX*8), Y0, Y9
	VFMADD231PD 8(SI)(AX*8), Y1, Y9
	VFMADD231PD 16(SI)(AX*8), Y2, Y9

	VFMADD231PD (DX)(AX*8), Y3, Y9
	VFMADD231PD 8(DX)(AX*8), Y4, Y9
	VFMADD231PD 16(DX)(AX*8), Y5, Y9

	VFMADD231PD (CX)(AX*8), Y6, Y9
	VFMADD231PD 8(CX)(AX*8), Y7, Y9
	VFMADD231PD 16(CX)(AX*8), Y8, Y9

	VMOVUPD Y9, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     loop4

	PCALIGN $64
tail:
	CMPQ AX, R9
	JGE  done

	VMOVSD (DI)(AX*8), X9

	VFMADD231SD (SI)(AX*8), X0, X9
	VFMADD231SD 8(SI)(AX*8), X1, X9
	VFMADD231SD 16(SI)(AX*8), X2, X9

	VFMADD231SD (DX)(AX*8), X3, X9
	VFMADD231SD 8(DX)(AX*8), X4, X9
	VFMADD231SD 16(DX)(AX*8), X5, X9

	VFMADD231SD (CX)(AX*8), X6, X9
	VFMADD231SD 8(CX)(AX*8), X7, X9
	VFMADD231SD 16(CX)(AX*8), X8, X9

	VMOVSD X9, (DI)(AX*8)
	INCQ   AX
	JMP    tail

done:
	VZEROUPPER
	RET

// func tap9z(acc, x0, x1, x2, w *float64, n int)
// AVX-512 variant of tap9: identical tap order and rounding, eight output
// elements per vector, and the last n mod 8 elements in one k-masked
// step. The masked loads zero the lanes past n and suppress their faults,
// and the masked store leaves acc past n untouched. Guarded by haveTap9Z
// (AVX512F + OS ZMM state).
TEXT ·tap9z(SB), NOSPLIT, $0-48
	MOVQ acc+0(FP), DI
	MOVQ x0+8(FP), SI
	MOVQ x1+16(FP), DX
	MOVQ x2+24(FP), R11
	MOVQ w+32(FP), R8
	MOVQ n+40(FP), R9

	// Broadcast the nine weights into ZMM.
	VBROADCASTSD 0(R8), Z0
	VBROADCASTSD 8(R8), Z1
	VBROADCASTSD 16(R8), Z2
	VBROADCASTSD 24(R8), Z3
	VBROADCASTSD 32(R8), Z4
	VBROADCASTSD 40(R8), Z5
	VBROADCASTSD 48(R8), Z6
	VBROADCASTSD 56(R8), Z7
	VBROADCASTSD 64(R8), Z8

	XORQ AX, AX

	PCALIGN $64
zloop8:
	LEAQ 8(AX), R10
	CMPQ R10, R9
	JGT  ztail

	VMOVUPD (DI)(AX*8), Z9

	VFMADD231PD (SI)(AX*8), Z0, Z9
	VFMADD231PD 8(SI)(AX*8), Z1, Z9
	VFMADD231PD 16(SI)(AX*8), Z2, Z9

	VFMADD231PD (DX)(AX*8), Z3, Z9
	VFMADD231PD 8(DX)(AX*8), Z4, Z9
	VFMADD231PD 16(DX)(AX*8), Z5, Z9

	VFMADD231PD (R11)(AX*8), Z6, Z9
	VFMADD231PD 8(R11)(AX*8), Z7, Z9
	VFMADD231PD 16(R11)(AX*8), Z8, Z9

	VMOVUPD Z9, (DI)(AX*8)
	ADDQ    $8, AX
	JMP     zloop8

	PCALIGN $64
ztail:
	// K1 = the low n-AX (0 to 7) lanes.
	MOVQ  R9, CX
	SUBQ  AX, CX
	JLE   zdone
	MOVL  $1, R10
	SHLL  CX, R10
	DECL  R10
	KMOVW R10, K1

	VMOVUPD.Z (DI)(AX*8), K1, Z9

	VMOVUPD.Z   (SI)(AX*8), K1, Z10
	VFMADD231PD Z10, Z0, Z9
	VMOVUPD.Z   8(SI)(AX*8), K1, Z10
	VFMADD231PD Z10, Z1, Z9
	VMOVUPD.Z   16(SI)(AX*8), K1, Z10
	VFMADD231PD Z10, Z2, Z9

	VMOVUPD.Z   (DX)(AX*8), K1, Z10
	VFMADD231PD Z10, Z3, Z9
	VMOVUPD.Z   8(DX)(AX*8), K1, Z10
	VFMADD231PD Z10, Z4, Z9
	VMOVUPD.Z   16(DX)(AX*8), K1, Z10
	VFMADD231PD Z10, Z5, Z9

	VMOVUPD.Z   (R11)(AX*8), K1, Z10
	VFMADD231PD Z10, Z6, Z9
	VMOVUPD.Z   8(R11)(AX*8), K1, Z10
	VFMADD231PD Z10, Z7, Z9
	VMOVUPD.Z   16(R11)(AX*8), K1, Z10
	VFMADD231PD Z10, Z8, Z9

	VMOVUPD Z9, K1, (DI)(AX*8)

zdone:
	VZEROUPPER
	RET

// func tap9z3(acc, x, w *float64, accStride, rowStride, wStride, n int)
// tap9z for three output channels at once: for o in 0..2 and j in [0, n),
//     acc[o*accStride+j] += Σ w[o*wStride+3ki+kj] * x[ki*rowStride+j+kj]
// over (ki, kj) ascending. The 27 weights stay in Z0–Z26 and the three
// accumulators in Z27–Z29; each tap loads its eight inputs once into Z30
// and feeds them to three FMAs, so each output keeps tap9z's order and
// rounding. The last n mod 8 elements take one k-masked step, as in
// tap9z. Guarded by haveTap9Z.
TEXT ·tap9z3(SB), NOSPLIT, $0-56
	MOVQ acc+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ w+16(FP), R8
	MOVQ accStride+24(FP), R10
	MOVQ rowStride+32(FP), R11
	MOVQ wStride+40(FP), R12
	MOVQ n+48(FP), R9

	// Accumulator rows DI, BX, R13; input rows SI, DX, R11.
	LEAQ (DI)(R10*8), BX
	LEAQ (BX)(R10*8), R13
	LEAQ (SI)(R11*8), DX
	LEAQ (DX)(R11*8), R11

	// Broadcast the three outputs' nine weights into Z0–Z8, Z9–Z17 and
	// Z18–Z26.
	SHLQ $3, R12
	VBROADCASTSD 0(R8), Z0
	VBROADCASTSD 8(R8), Z1
	VBROADCASTSD 16(R8), Z2
	VBROADCASTSD 24(R8), Z3
	VBROADCASTSD 32(R8), Z4
	VBROADCASTSD 40(R8), Z5
	VBROADCASTSD 48(R8), Z6
	VBROADCASTSD 56(R8), Z7
	VBROADCASTSD 64(R8), Z8
	ADDQ         R12, R8
	VBROADCASTSD 0(R8), Z9
	VBROADCASTSD 8(R8), Z10
	VBROADCASTSD 16(R8), Z11
	VBROADCASTSD 24(R8), Z12
	VBROADCASTSD 32(R8), Z13
	VBROADCASTSD 40(R8), Z14
	VBROADCASTSD 48(R8), Z15
	VBROADCASTSD 56(R8), Z16
	VBROADCASTSD 64(R8), Z17
	ADDQ         R12, R8
	VBROADCASTSD 0(R8), Z18
	VBROADCASTSD 8(R8), Z19
	VBROADCASTSD 16(R8), Z20
	VBROADCASTSD 24(R8), Z21
	VBROADCASTSD 32(R8), Z22
	VBROADCASTSD 40(R8), Z23
	VBROADCASTSD 48(R8), Z24
	VBROADCASTSD 56(R8), Z25
	VBROADCASTSD 64(R8), Z26

	XORQ AX, AX

	PCALIGN $64
z3loop8:
	LEAQ 8(AX), R10
	CMPQ R10, R9
	JGT  z3tail

	VMOVUPD (DI)(AX*8), Z27
	VMOVUPD (BX)(AX*8), Z28
	VMOVUPD (R13)(AX*8), Z29

	VMOVUPD     (SI)(AX*8), Z30
	VFMADD231PD Z30, Z0, Z27
	VFMADD231PD Z30, Z9, Z28
	VFMADD231PD Z30, Z18, Z29
	VMOVUPD     8(SI)(AX*8), Z30
	VFMADD231PD Z30, Z1, Z27
	VFMADD231PD Z30, Z10, Z28
	VFMADD231PD Z30, Z19, Z29
	VMOVUPD     16(SI)(AX*8), Z30
	VFMADD231PD Z30, Z2, Z27
	VFMADD231PD Z30, Z11, Z28
	VFMADD231PD Z30, Z20, Z29

	VMOVUPD     (DX)(AX*8), Z30
	VFMADD231PD Z30, Z3, Z27
	VFMADD231PD Z30, Z12, Z28
	VFMADD231PD Z30, Z21, Z29
	VMOVUPD     8(DX)(AX*8), Z30
	VFMADD231PD Z30, Z4, Z27
	VFMADD231PD Z30, Z13, Z28
	VFMADD231PD Z30, Z22, Z29
	VMOVUPD     16(DX)(AX*8), Z30
	VFMADD231PD Z30, Z5, Z27
	VFMADD231PD Z30, Z14, Z28
	VFMADD231PD Z30, Z23, Z29

	VMOVUPD     (R11)(AX*8), Z30
	VFMADD231PD Z30, Z6, Z27
	VFMADD231PD Z30, Z15, Z28
	VFMADD231PD Z30, Z24, Z29
	VMOVUPD     8(R11)(AX*8), Z30
	VFMADD231PD Z30, Z7, Z27
	VFMADD231PD Z30, Z16, Z28
	VFMADD231PD Z30, Z25, Z29
	VMOVUPD     16(R11)(AX*8), Z30
	VFMADD231PD Z30, Z8, Z27
	VFMADD231PD Z30, Z17, Z28
	VFMADD231PD Z30, Z26, Z29

	VMOVUPD Z27, (DI)(AX*8)
	VMOVUPD Z28, (BX)(AX*8)
	VMOVUPD Z29, (R13)(AX*8)
	ADDQ    $8, AX
	JMP     z3loop8

	PCALIGN $64
z3tail:
	MOVQ  R9, CX
	SUBQ  AX, CX
	JLE   z3done
	MOVL  $1, R10
	SHLL  CX, R10
	DECL  R10
	KMOVW R10, K1

	VMOVUPD.Z (DI)(AX*8), K1, Z27
	VMOVUPD.Z (BX)(AX*8), K1, Z28
	VMOVUPD.Z (R13)(AX*8), K1, Z29

	VMOVUPD.Z   (SI)(AX*8), K1, Z30
	VFMADD231PD Z30, Z0, Z27
	VFMADD231PD Z30, Z9, Z28
	VFMADD231PD Z30, Z18, Z29
	VMOVUPD.Z   8(SI)(AX*8), K1, Z30
	VFMADD231PD Z30, Z1, Z27
	VFMADD231PD Z30, Z10, Z28
	VFMADD231PD Z30, Z19, Z29
	VMOVUPD.Z   16(SI)(AX*8), K1, Z30
	VFMADD231PD Z30, Z2, Z27
	VFMADD231PD Z30, Z11, Z28
	VFMADD231PD Z30, Z20, Z29

	VMOVUPD.Z   (DX)(AX*8), K1, Z30
	VFMADD231PD Z30, Z3, Z27
	VFMADD231PD Z30, Z12, Z28
	VFMADD231PD Z30, Z21, Z29
	VMOVUPD.Z   8(DX)(AX*8), K1, Z30
	VFMADD231PD Z30, Z4, Z27
	VFMADD231PD Z30, Z13, Z28
	VFMADD231PD Z30, Z22, Z29
	VMOVUPD.Z   16(DX)(AX*8), K1, Z30
	VFMADD231PD Z30, Z5, Z27
	VFMADD231PD Z30, Z14, Z28
	VFMADD231PD Z30, Z23, Z29

	VMOVUPD.Z   (R11)(AX*8), K1, Z30
	VFMADD231PD Z30, Z6, Z27
	VFMADD231PD Z30, Z15, Z28
	VFMADD231PD Z30, Z24, Z29
	VMOVUPD.Z   8(R11)(AX*8), K1, Z30
	VFMADD231PD Z30, Z7, Z27
	VFMADD231PD Z30, Z16, Z28
	VFMADD231PD Z30, Z25, Z29
	VMOVUPD.Z   16(R11)(AX*8), K1, Z30
	VFMADD231PD Z30, Z8, Z27
	VFMADD231PD Z30, Z17, Z28
	VFMADD231PD Z30, Z26, Z29

	VMOVUPD Z27, K1, (DI)(AX*8)
	VMOVUPD Z28, K1, (BX)(AX*8)
	VMOVUPD Z29, K1, (R13)(AX*8)

z3done:
	VZEROUPPER
	RET

// func pointwisez(dst, x, w *float64, bias float64, inC, stride, n int, relu bool)
// AVX-512 pointwise (1×1) kernel: for j in [0, n),
//     a = bias ; a += w[ic]*x[ic*stride+j] for ic ascending
//     dst[j] = float64(float32(a)), then max(dst[j], +0) if relu
// The accumulators stay in registers across every input channel: blocks
// of 32 elements in four ZMM registers, then 8-element blocks, then a
// scalar tail. VCVTPD2PS rounds to nearest even like Go's float32(), and
// VCVTPS2PD widens exactly. VMAXPD returns its second source (Z9, +0)
// unless the first is greater, so NaN, −0 and negatives store +0: ReLU.
// Requires inC >= 1.
TEXT ·pointwisez(SB), NOSPLIT, $0-57
	MOVQ         dst+0(FP), DI
	MOVQ         x+8(FP), SI
	MOVQ         w+16(FP), R8
	VBROADCASTSD bias+24(FP), Z31
	MOVQ         inC+32(FP), R9
	MOVQ         stride+40(FP), R10
	SHLQ         $3, R10
	MOVQ         n+48(FP), R11
	MOVBQZX      relu+56(FP), R12
	VXORPD       X9, X9, X9
	XORQ         AX, AX

pz32:
	LEAQ    32(AX), BX
	CMPQ    BX, R11
	JGT     pz8
	VMOVAPD Z31, Z0
	VMOVAPD Z31, Z1
	VMOVAPD Z31, Z2
	VMOVAPD Z31, Z3
	LEAQ    (SI)(AX*8), CX
	MOVQ    R8, DX
	MOVQ    R9, BX

pz32ic:
	VBROADCASTSD (DX), Z4
	VFMADD231PD  (CX), Z4, Z0
	VFMADD231PD  64(CX), Z4, Z1
	VFMADD231PD  128(CX), Z4, Z2
	VFMADD231PD  192(CX), Z4, Z3
	ADDQ         R10, CX
	ADDQ         $8, DX
	DECQ         BX
	JNZ          pz32ic

	VCVTPD2PS Z0, Y0
	VCVTPS2PD Y0, Z0
	VCVTPD2PS Z1, Y1
	VCVTPS2PD Y1, Z1
	VCVTPD2PS Z2, Y2
	VCVTPS2PD Y2, Z2
	VCVTPD2PS Z3, Y3
	VCVTPS2PD Y3, Z3
	TESTQ     R12, R12
	JZ        pz32st
	VMAXPD    Z9, Z0, Z0
	VMAXPD    Z9, Z1, Z1
	VMAXPD    Z9, Z2, Z2
	VMAXPD    Z9, Z3, Z3

pz32st:
	VMOVUPD Z0, (DI)(AX*8)
	VMOVUPD Z1, 64(DI)(AX*8)
	VMOVUPD Z2, 128(DI)(AX*8)
	VMOVUPD Z3, 192(DI)(AX*8)
	ADDQ    $32, AX
	JMP     pz32

pz8:
	LEAQ    8(AX), BX
	CMPQ    BX, R11
	JGT     pz1
	VMOVAPD Z31, Z0
	LEAQ    (SI)(AX*8), CX
	MOVQ    R8, DX
	MOVQ    R9, BX

pz8ic:
	VBROADCASTSD (DX), Z4
	VFMADD231PD  (CX), Z4, Z0
	ADDQ         R10, CX
	ADDQ         $8, DX
	DECQ         BX
	JNZ          pz8ic

	VCVTPD2PS Z0, Y0
	VCVTPS2PD Y0, Z0
	TESTQ     R12, R12
	JZ        pz8st
	VMAXPD    Z9, Z0, Z0

pz8st:
	VMOVUPD Z0, (DI)(AX*8)
	ADDQ    $8, AX
	JMP     pz8

pz1:
	CMPQ    AX, R11
	JGE     pzdone
	VMOVSD  bias+24(FP), X0
	LEAQ    (SI)(AX*8), CX
	MOVQ    R8, DX
	MOVQ    R9, BX

pz1ic:
	VMOVSD (DX), X4
	VFMADD231SD (CX), X4, X0
	ADDQ   R10, CX
	ADDQ   $8, DX
	DECQ   BX
	JNZ    pz1ic

	VCVTSD2SS X0, X0, X0
	VCVTSS2SD X0, X0, X0
	TESTQ     R12, R12
	JZ        pz1st
	VMAXSD    X9, X0, X0

pz1st:
	VMOVSD X0, (DI)(AX*8)
	INCQ   AX
	JMP    pz1

pzdone:
	VZEROUPPER
	RET

// func pointwise(dst, x, w *float64, bias float64, inC, stride, n int, relu bool)
// AVX2 variant of pointwisez: 16-element blocks in four YMM registers,
// then 4-element blocks, then a scalar tail; Y12 holds the +0 of the
// clamp. Requires inC >= 1.
TEXT ·pointwise(SB), NOSPLIT, $0-57
	MOVQ         dst+0(FP), DI
	MOVQ         x+8(FP), SI
	MOVQ         w+16(FP), R8
	VBROADCASTSD bias+24(FP), Y13
	MOVQ         inC+32(FP), R9
	MOVQ         stride+40(FP), R10
	SHLQ         $3, R10
	MOVQ         n+48(FP), R11
	MOVBQZX      relu+56(FP), R12
	VXORPD       Y12, Y12, Y12
	XORQ         AX, AX

py16:
	LEAQ    16(AX), BX
	CMPQ    BX, R11
	JGT     py4
	VMOVAPD Y13, Y0
	VMOVAPD Y13, Y1
	VMOVAPD Y13, Y2
	VMOVAPD Y13, Y3
	LEAQ    (SI)(AX*8), CX
	MOVQ    R8, DX
	MOVQ    R9, BX

py16ic:
	VBROADCASTSD (DX), Y4
	VFMADD231PD  (CX), Y4, Y0
	VFMADD231PD  32(CX), Y4, Y1
	VFMADD231PD  64(CX), Y4, Y2
	VFMADD231PD  96(CX), Y4, Y3
	ADDQ         R10, CX
	ADDQ         $8, DX
	DECQ         BX
	JNZ          py16ic

	VCVTPD2PSY Y0, X0
	VCVTPS2PD  X0, Y0
	VCVTPD2PSY Y1, X1
	VCVTPS2PD  X1, Y1
	VCVTPD2PSY Y2, X2
	VCVTPS2PD  X2, Y2
	VCVTPD2PSY Y3, X3
	VCVTPS2PD  X3, Y3
	TESTQ      R12, R12
	JZ         py16st
	VMAXPD     Y12, Y0, Y0
	VMAXPD     Y12, Y1, Y1
	VMAXPD     Y12, Y2, Y2
	VMAXPD     Y12, Y3, Y3

py16st:
	VMOVUPD Y0, (DI)(AX*8)
	VMOVUPD Y1, 32(DI)(AX*8)
	VMOVUPD Y2, 64(DI)(AX*8)
	VMOVUPD Y3, 96(DI)(AX*8)
	ADDQ    $16, AX
	JMP     py16

py4:
	LEAQ    4(AX), BX
	CMPQ    BX, R11
	JGT     py1
	VMOVAPD Y13, Y0
	LEAQ    (SI)(AX*8), CX
	MOVQ    R8, DX
	MOVQ    R9, BX

py4ic:
	VBROADCASTSD (DX), Y4
	VFMADD231PD  (CX), Y4, Y0
	ADDQ         R10, CX
	ADDQ         $8, DX
	DECQ         BX
	JNZ          py4ic

	VCVTPD2PSY Y0, X0
	VCVTPS2PD  X0, Y0
	TESTQ      R12, R12
	JZ         py4st
	VMAXPD     Y12, Y0, Y0

py4st:
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     py4

py1:
	CMPQ    AX, R11
	JGE     pydone
	VMOVSD  bias+24(FP), X0
	LEAQ    (SI)(AX*8), CX
	MOVQ    R8, DX
	MOVQ    R9, BX

py1ic:
	VMOVSD (DX), X4
	VFMADD231SD (CX), X4, X0
	ADDQ   R10, CX
	ADDQ   $8, DX
	DECQ   BX
	JNZ    py1ic

	VCVTSD2SS X0, X0, X0
	VCVTSS2SD X0, X0, X0
	TESTQ     R12, R12
	JZ        py1st
	VMAXSD    X12, X0, X0

py1st:
	VMOVSD X0, (DI)(AX*8)
	INCQ   AX
	JMP    py1

pydone:
	VZEROUPPER
	RET

// func fillRow(acc *float64, v float64, n int)
// AVX2 row fill: acc[j] = v for j in [0, n), four per store, then a
// scalar tail.
TEXT ·fillRow(SB), NOSPLIT, $0-24
	MOVQ         acc+0(FP), DI
	VBROADCASTSD v+8(FP), Y0
	MOVQ         n+16(FP), CX
	XORQ         AX, AX

fr4:
	LEAQ    4(AX), BX
	CMPQ    BX, CX
	JGT     fr1
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     fr4

fr1:
	CMPQ   AX, CX
	JGE    frdone
	VMOVSD X0, (DI)(AX*8)
	INCQ   AX
	JMP    fr1

frdone:
	VZEROUPPER
	RET

// func roundRow(dst, acc *float64, n int, relu bool)
// AVX2 row store: for j in [0, n), dst[j] = float64(float32(acc[j])),
// then max(dst[j], +0) if relu — the epilogue of pointwise, four at a
// time, then a scalar tail; Y12 holds the +0 of the clamp.
TEXT ·roundRow(SB), NOSPLIT, $0-25
	MOVQ    dst+0(FP), DI
	MOVQ    acc+8(FP), SI
	MOVQ    n+16(FP), CX
	MOVBQZX relu+24(FP), R12
	VXORPD  Y12, Y12, Y12
	XORQ    AX, AX

rr4:
	LEAQ       4(AX), BX
	CMPQ       BX, CX
	JGT        rr1
	VCVTPD2PSY (SI)(AX*8), X0
	VCVTPS2PD  X0, Y0
	TESTQ      R12, R12
	JZ         rr4st
	VMAXPD     Y12, Y0, Y0

rr4st:
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     rr4

rr1:
	CMPQ      AX, CX
	JGE       rrdone
	VMOVSD    (SI)(AX*8), X0
	VCVTSD2SS X0, X0, X0
	VCVTSS2SD X0, X0, X0
	TESTQ     R12, R12
	JZ        rr1st
	VMAXSD    X12, X0, X0

rr1st:
	VMOVSD X0, (DI)(AX*8)
	INCQ   AX
	JMP    rr1

rrdone:
	VZEROUPPER
	RET
