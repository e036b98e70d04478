//go:build !noasm

#include "textflag.h"

// func roundF16Asm(dst, src *float32, n int64)
// Sixteen lanes a step: vcvtps2ph $0 rounds to nearest-even into float16
// (Inf on overflow, float16 subnormals kept, as F16Bits does), vcvtph2ps
// widens back exactly, and a lane whose input is NaN (vcmpps unordered)
// takes RoundF16's NaN, 0x7fc00000, whatever its sign and payload.
TEXT ·roundF16Asm(SB), NOSPLIT, $0-24
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         n+16(FP), CX
	MOVL         $0x7fc00000, AX
	VPBROADCASTD AX, Z3

roundloop:
	VMOVUPS   (SI), Z0
	VCMPPS    $3, Z0, Z0, K1
	VCVTPS2PH $0, Z0, Y1
	VCVTPH2PS Y1, Z2
	VMOVAPS   Z3, K1, Z2
	VMOVUPS   Z2, (DI)
	ADDQ      $64, SI
	ADDQ      $64, DI
	SUBQ      $16, CX
	JNZ       roundloop
	VZEROUPPER
	RET

// func f16BitsAsm(dst *uint16, src *float32, n int64)
// Sixteen lanes a step: a NaN lane becomes sign | 0x7fc00000 (its sign
// kept, its payload cleared), which vcvtps2ph turns into F16Bits' NaN,
// sign | 0x7e00; every other lane converts with round-to-nearest-even.
TEXT ·f16BitsAsm(SB), NOSPLIT, $0-24
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         n+16(FP), CX
	MOVL         $0x80000000, AX
	VPBROADCASTD AX, Z3
	MOVL         $0x7fc00000, AX
	VPBROADCASTD AX, Z4

bitsloop:
	VMOVUPS   (SI), Z0
	VCMPPS    $3, Z0, Z0, K1
	VPANDD    Z3, Z0, K1, Z0
	VPORD     Z4, Z0, K1, Z0
	VCVTPS2PH $0, Z0, Y1
	VMOVDQU   Y1, (DI)
	ADDQ      $64, SI
	ADDQ      $32, DI
	SUBQ      $16, CX
	JNZ       bitsloop
	VZEROUPPER
	RET
