// SIMD kernels for the convolutions (see infer.go): tap9 (AVX2) and tap9z
// (AVX-512) for a fused 3×3 tap bundle (the interior of a tapRows row, or
// a whole zero-padded plane of conv3dPadded), tap3 (AVX2) for tapRows'
// clipped single-row bundles, pointwise (AVX2) and pointwisez (AVX-512)
// for whole 1×1 convolution strips, and fillRow and roundRow (AVX2) for
// the bias fill and the store of every convolution row. tap9 and tap9z
// start their vector loop and their scalar tail on 64-byte boundaries
// (PCALIGN), so where the linker places them does not change how the loop
// body is fetched.
//
// Bit-identity contract: every output element j computes its taps as
// sequential multiply-then-add steps in ascending tap order —
//     acc[j] += w[0]*x0[j] ; acc[j] += w[1]*x0[j+1] ; ... ; acc[j] += w[8]*x2[j+2]
// VMULPD followed by VADDPD per tap, never VFMADD (fused rounding would
// change results). Vector lanes are distinct output elements, which are
// independent accumulators, so 4- or 8-wide execution preserves
// per-element semantics exactly; IEEE mul/add are bitwise commutative for
// the finite operands this codec produces. Every store rounds the float64
// sum to float32 (VCVTPD2PS, round to nearest even like Go's float32())
// and widens it back exactly (VCVTPS2PD): activations are float64 arrays
// of float32-exact values. A folded ReLU then clamps with VMAXPD against
// +0, which returns its second source unless the first is greater, so
// NaN, −0 and negatives store +0 exactly as ReLU does.

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

	VMOVUPD (SI)(AX*8), Y10
	VMULPD  Y10, Y0, Y11
	VADDPD  Y11, Y9, Y9
	VMOVUPD 8(SI)(AX*8), Y10
	VMULPD  Y10, Y1, Y11
	VADDPD  Y11, Y9, Y9
	VMOVUPD 16(SI)(AX*8), Y10
	VMULPD  Y10, Y2, Y11
	VADDPD  Y11, Y9, Y9

	VMOVUPD (DX)(AX*8), Y10
	VMULPD  Y10, Y3, Y11
	VADDPD  Y11, Y9, Y9
	VMOVUPD 8(DX)(AX*8), Y10
	VMULPD  Y10, Y4, Y11
	VADDPD  Y11, Y9, Y9
	VMOVUPD 16(DX)(AX*8), Y10
	VMULPD  Y10, Y5, Y11
	VADDPD  Y11, Y9, Y9

	VMOVUPD (CX)(AX*8), Y10
	VMULPD  Y10, Y6, Y11
	VADDPD  Y11, Y9, Y9
	VMOVUPD 8(CX)(AX*8), Y10
	VMULPD  Y10, Y7, Y11
	VADDPD  Y11, Y9, Y9
	VMOVUPD 16(CX)(AX*8), Y10
	VMULPD  Y10, Y8, Y11
	VADDPD  Y11, Y9, Y9

	VMOVUPD Y9, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     loop4

	PCALIGN $64
tail:
	CMPQ AX, R9
	JGE  done

	VMOVSD (DI)(AX*8), X9

	VMOVSD (SI)(AX*8), X10
	VMULSD X10, X0, X11
	VADDSD X11, X9, X9
	VMOVSD 8(SI)(AX*8), X10
	VMULSD X10, X1, X11
	VADDSD X11, X9, X9
	VMOVSD 16(SI)(AX*8), X10
	VMULSD X10, X2, X11
	VADDSD X11, X9, X9

	VMOVSD (DX)(AX*8), X10
	VMULSD X10, X3, X11
	VADDSD X11, X9, X9
	VMOVSD 8(DX)(AX*8), X10
	VMULSD X10, X4, X11
	VADDSD X11, X9, X9
	VMOVSD 16(DX)(AX*8), X10
	VMULSD X10, X5, X11
	VADDSD X11, X9, X9

	VMOVSD (CX)(AX*8), X10
	VMULSD X10, X6, X11
	VADDSD X11, X9, X9
	VMOVSD 8(CX)(AX*8), X10
	VMULSD X10, X7, X11
	VADDSD X11, X9, X9
	VMOVSD 16(CX)(AX*8), X10
	VMULSD X10, X8, X11
	VADDSD X11, X9, X9

	VMOVSD X9, (DI)(AX*8)
	INCQ   AX
	JMP    tail

done:
	VZEROUPPER
	RET

// func tap9z(acc, x0, x1, x2, w *float64, n int)
// AVX-512 variant of tap9: identical tap order and rounding, eight output
// elements per vector. Guarded by haveTap9Z (AVX512F + OS ZMM state).
TEXT ·tap9z(SB), NOSPLIT, $0-48
	MOVQ acc+0(FP), DI
	MOVQ x0+8(FP), SI
	MOVQ x1+16(FP), DX
	MOVQ x2+24(FP), CX
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

	VMOVUPD (SI)(AX*8), Z10
	VMULPD  Z10, Z0, Z11
	VADDPD  Z11, Z9, Z9
	VMOVUPD 8(SI)(AX*8), Z10
	VMULPD  Z10, Z1, Z11
	VADDPD  Z11, Z9, Z9
	VMOVUPD 16(SI)(AX*8), Z10
	VMULPD  Z10, Z2, Z11
	VADDPD  Z11, Z9, Z9

	VMOVUPD (DX)(AX*8), Z10
	VMULPD  Z10, Z3, Z11
	VADDPD  Z11, Z9, Z9
	VMOVUPD 8(DX)(AX*8), Z10
	VMULPD  Z10, Z4, Z11
	VADDPD  Z11, Z9, Z9
	VMOVUPD 16(DX)(AX*8), Z10
	VMULPD  Z10, Z5, Z11
	VADDPD  Z11, Z9, Z9

	VMOVUPD (CX)(AX*8), Z10
	VMULPD  Z10, Z6, Z11
	VADDPD  Z11, Z9, Z9
	VMOVUPD 8(CX)(AX*8), Z10
	VMULPD  Z10, Z7, Z11
	VADDPD  Z11, Z9, Z9
	VMOVUPD 16(CX)(AX*8), Z10
	VMULPD  Z10, Z8, Z11
	VADDPD  Z11, Z9, Z9

	VMOVUPD Z9, (DI)(AX*8)
	ADDQ    $8, AX
	JMP     zloop8

	PCALIGN $64
ztail:
	CMPQ AX, R9
	JGE  zdone

	VMOVSD (DI)(AX*8), X9

	VMOVSD (SI)(AX*8), X10
	VMULSD X10, X0, X11
	VADDSD X11, X9, X9
	VMOVSD 8(SI)(AX*8), X10
	VMULSD X10, X1, X11
	VADDSD X11, X9, X9
	VMOVSD 16(SI)(AX*8), X10
	VMULSD X10, X2, X11
	VADDSD X11, X9, X9

	VMOVSD (DX)(AX*8), X10
	VMULSD X10, X3, X11
	VADDSD X11, X9, X9
	VMOVSD 8(DX)(AX*8), X10
	VMULSD X10, X4, X11
	VADDSD X11, X9, X9
	VMOVSD 16(DX)(AX*8), X10
	VMULSD X10, X5, X11
	VADDSD X11, X9, X9

	VMOVSD (CX)(AX*8), X10
	VMULSD X10, X6, X11
	VADDSD X11, X9, X9
	VMOVSD 8(CX)(AX*8), X10
	VMULSD X10, X7, X11
	VADDSD X11, X9, X9
	VMOVSD 16(CX)(AX*8), X10
	VMULSD X10, X8, X11
	VADDSD X11, X9, X9

	VMOVSD X9, (DI)(AX*8)
	INCQ   AX
	JMP    ztail

zdone:
	VZEROUPPER
	RET

// func tap3(acc, x, w *float64, n int)
// One 3-tap row bundle: acc[j] += w[0]*x[j]; += w[1]*x[j+1]; += w[2]*x[j+2].
TEXT ·tap3(SB), NOSPLIT, $0-32
	MOVQ acc+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ w+16(FP), R8
	MOVQ n+24(FP), R9

	VBROADCASTSD 0(R8), Y0
	VBROADCASTSD 8(R8), Y1
	VBROADCASTSD 16(R8), Y2

	XORQ AX, AX

t3loop4:
	LEAQ 4(AX), R10
	CMPQ R10, R9
	JGT  t3tail

	VMOVUPD (DI)(AX*8), Y9

	VMOVUPD (SI)(AX*8), Y10
	VMULPD  Y10, Y0, Y11
	VADDPD  Y11, Y9, Y9
	VMOVUPD 8(SI)(AX*8), Y10
	VMULPD  Y10, Y1, Y11
	VADDPD  Y11, Y9, Y9
	VMOVUPD 16(SI)(AX*8), Y10
	VMULPD  Y10, Y2, Y11
	VADDPD  Y11, Y9, Y9

	VMOVUPD Y9, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     t3loop4

t3tail:
	CMPQ AX, R9
	JGE  t3done

	VMOVSD (DI)(AX*8), X9

	VMOVSD (SI)(AX*8), X10
	VMULSD X10, X0, X11
	VADDSD X11, X9, X9
	VMOVSD 8(SI)(AX*8), X10
	VMULSD X10, X1, X11
	VADDSD X11, X9, X9
	VMOVSD 16(SI)(AX*8), X10
	VMULSD X10, X2, X11
	VADDSD X11, X9, X9

	VMOVSD X9, (DI)(AX*8)
	INCQ   AX
	JMP    t3tail

t3done:
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
	VMULPD       (CX), Z4, Z5
	VADDPD       Z5, Z0, Z0
	VMULPD       64(CX), Z4, Z6
	VADDPD       Z6, Z1, Z1
	VMULPD       128(CX), Z4, Z7
	VADDPD       Z7, Z2, Z2
	VMULPD       192(CX), Z4, Z8
	VADDPD       Z8, Z3, Z3
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
	VMULPD       (CX), Z4, Z5
	VADDPD       Z5, Z0, Z0
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
	VMULSD (CX), X4, X5
	VADDSD X5, X0, X0
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
	VMULPD       (CX), Y4, Y5
	VADDPD       Y5, Y0, Y0
	VMULPD       32(CX), Y4, Y6
	VADDPD       Y6, Y1, Y1
	VMULPD       64(CX), Y4, Y7
	VADDPD       Y7, Y2, Y2
	VMULPD       96(CX), Y4, Y8
	VADDPD       Y8, Y3, Y3
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
	VMULPD       (CX), Y4, Y5
	VADDPD       Y5, Y0, Y0
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
	VMULSD (CX), X4, X5
	VADDSD X5, X0, X0
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
