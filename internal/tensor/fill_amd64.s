//go:build !noasm

// AVX-512 bodies of RNG.Uniform, RNG.Normal and stream.refill, with the
// bits of the Go loops in rng.go. The fills take sixteen words per step,
// each repeating the compiled Go element code operation for operation and
// operand for operand (the Go compiler fuses no multiply-add on amd64, so
// neither do these). A fill body stops at the first word that leaves its fast path,
// stores only the lanes before it and returns its index; the Go loop
// reads that word again and hands it to rand.Rand.
//
// Register plan (uniformAsm, normalAsm):
//
//	Z0, Z1    the step's words, then its values
//	Z20, Z21  lo and hi−lo, or mean and std
//	K1        lanes that leave the fast path
//	DI=dst  SI=src  CX=n  AX=words done

#include "textflag.h"

DATA fillConsts<>+0(SB)/8, $0x7fffffffffffffff  // Int63's mask
DATA fillConsts<>+8(SB)/8, $0x3c00000000000000  // 2⁻⁶³
DATA fillConsts<>+16(SB)/4, $0x3f800000         // float32 1
DATA fillConsts<>+20(SB)/4, $0x7f               // the ziggurat's strip mask
GLOBL fillConsts<>(SB), RODATA|NOPTR, $24

// stopAtLane stores Z0's lanes below the lowest set bit of K1 to
// (DI)(AX*4), adds that lane's index to AX and jumps to done; clobbers
// BX, DX, R10 and K2.
#define stopAtLane(done) \
	KMOVW  K1, DX;              \
	BSFL   DX, R10;             \
	LEAL   -1(DX), BX;          \
	NOTL   DX;                  \
	ANDL   DX, BX;              \
	KMOVW  BX, K2;              \
	VMOVUPS Z0, K2, (DI)(AX*4); \
	ADDQ   R10, AX;             \
	JMP    done

// func uniformAsm(dst *float32, src *uint64, n int64, lo, hi float32) int64
// f = float32(float64(int64(w & mask)) · 2⁻⁶³); f = 1 leaves the fast
// path; dst = lo + (hi−lo)·f.
TEXT ·uniformAsm(SB), NOSPLIT, $0-40
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         n+16(FP), CX
	VMOVSS       lo+24(FP), X0
	VMOVSS       hi+28(FP), X1
	VSUBSS       X0, X1, X1
	VBROADCASTSS X0, Z20
	VBROADCASTSS X1, Z21
	VPBROADCASTQ fillConsts<>+0(SB), Z22
	VBROADCASTSD fillConsts<>+8(SB), Z23
	VBROADCASTSS fillConsts<>+16(SB), Z24
	XORQ         AX, AX

uniformLoop:
	CMPQ         AX, CX
	JGE          uniformDone
	VPANDQ       (SI)(AX*8), Z22, Z0
	VPANDQ       64(SI)(AX*8), Z22, Z1
	VCVTQQ2PD    Z0, Z0
	VCVTQQ2PD    Z1, Z1
	VMULPD       Z23, Z0, Z0
	VMULPD       Z23, Z1, Z1
	VCVTPD2PS    Z0, Y0
	VCVTPD2PS    Z1, Y1
	VINSERTF64X4 $1, Y1, Z0, Z0
	VCMPPS       $0, Z24, Z0, K1
	VMULPS       Z21, Z0, Z0
	VADDPS       Z20, Z0, Z0
	KORTESTW     K1, K1
	JNZ          uniformStop
	VMOVUPS      Z0, (DI)(AX*4)
	ADDQ         $16, AX
	JMP          uniformLoop

uniformStop:
	stopAtLane(uniformDone)

uniformDone:
	MOVQ AX, ret+32(FP)
	VZEROUPPER
	RET

// func normalAsm(dst *float32, src *uint64, n int64, mean, std float32) int64
// j = int32(w >> 31), i = j & 0x7F; |j| < kn[i] (unsigned, so MinInt32
// leaves) stays on the fast path; dst = mean + std·float32(float64(j) ·
// float64(wn[i])).
TEXT ·normalAsm(SB), NOSPLIT, $0-40
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         n+16(FP), CX
	VBROADCASTSS mean+24(FP), Z20
	VBROADCASTSS std+28(FP), Z21
	VPBROADCASTD fillConsts<>+20(SB), Z22
	LEAQ         ·kn(SB), R8
	LEAQ         ·wn(SB), R9
	XORQ         AX, AX

normalLoop:
	CMPQ          AX, CX
	JGE           normalDone
	VMOVDQU64     (SI)(AX*8), Z0
	VMOVDQU64     64(SI)(AX*8), Z1
	VPSRLQ        $31, Z0, Z0
	VPSRLQ        $31, Z1, Z1
	VPMOVQD       Z0, Y0
	VPMOVQD       Z1, Y1
	VINSERTI64X4  $1, Y1, Z0, Z0  // j
	VPANDD        Z22, Z0, Z2     // i
	KXNORW        K2, K2, K2
	VPGATHERDD    (R8)(Z2*4), K2, Z3
	KXNORW        K3, K3, K3
	VGATHERDPS    (R9)(Z2*4), K3, Z4
	VPABSD        Z0, Z5
	VPCMPUD       $5, Z3, Z5, K1  // |j| ≥ kn[i]
	VEXTRACTI64X4 $1, Z0, Y6
	VEXTRACTF64X4 $1, Z4, Y7
	VCVTDQ2PD     Y0, Z0
	VCVTPS2PD     Y4, Z4
	VCVTDQ2PD     Y6, Z6
	VCVTPS2PD     Y7, Z7
	VMULPD        Z4, Z0, Z0
	VMULPD        Z7, Z6, Z6
	VCVTPD2PS     Z0, Y0
	VCVTPD2PS     Z6, Y6
	VINSERTF64X4  $1, Y6, Z0, Z0
	VMULPS        Z21, Z0, Z0
	VADDPS        Z20, Z0, Z0
	KORTESTW      K1, K1
	JNZ           normalStop
	VMOVUPS       Z0, (DI)(AX*4)
	ADDQ          $16, AX
	JMP           normalLoop

normalStop:
	stopAtLane(normalDone)

normalDone:
	MOVQ AX, ret+32(FP)
	VZEROUPPER
	RET

// func refillAsm(w *[607]uint64)
// w[k] += w[k+334] for k < 273, then w[k] += w[k−273] for k ≥ 273, in
// ascending k: a vector's lagged operand lies 273 words back, in a
// vector already stored.
TEXT ·refillAsm(SB), NOSPLIT, $0-8
	MOVQ w+0(FP), DI
	XORQ AX, AX

refillLow:
	VMOVDQU64 (DI)(AX*8), Z0
	VPADDQ    2672(DI)(AX*8), Z0, Z0
	VMOVDQU64 Z0, (DI)(AX*8)
	ADDQ      $8, AX
	CMPQ      AX, $272
	JLT       refillLow
	MOVQ      2672(DI)(AX*8), BX
	ADDQ      BX, (DI)(AX*8)
	MOVQ      $273, AX

refillHigh:
	VMOVDQU64 (DI)(AX*8), Z0
	VPADDQ    -2184(DI)(AX*8), Z0, Z0
	VMOVDQU64 Z0, (DI)(AX*8)
	ADDQ      $8, AX
	CMPQ      AX, $601
	JLT       refillHigh

refillTail:
	MOVQ -2184(DI)(AX*8), BX
	ADDQ BX, (DI)(AX*8)
	INCQ AX
	CMPQ AX, $607
	JLT  refillTail
	VZEROUPPER
	RET
