//go:build !noasm

// AVX-512F bodies of geluSlice, sigmoidSlice and tanhSlice: sixteen
// elements per step, with the bits of the scalar loops. Each repeats the
// compiled scalar code instruction for instruction, on expf32x16
// (exp_amd64.h) for the exponential. Go's min(v, 87) is MINSS, MINSS,
// POR: min(v, 87) then min(that, v), ORed, which keeps min's NaN and
// signed-zero rules.
//
// Register plan (every function), beside exp_amd64.h's:
//
//	Z0        x (sixteen elements of src)
//	Z2, Z3    working values
//	Z25, Z26  the function's own two constants
//	DI=dst  SI=src  CX=elements left (a multiple of 16)

#include "textflag.h"
#include "exp_amd64.h"

DATA actConsts<>+0(SB)/4, $0x3d922279  // geluArg's k2·0.044715
DATA actConsts<>+4(SB)/4, $0x3fcc422a  // geluArg's k2
DATA actConsts<>+8(SB)/4, $0xc0000000  // tanh's −2
DATA actConsts<>+12(SB)/4, $0x7fffffff // tanh's magnitude mask
GLOBL actConsts<>(SB), RODATA|NOPTR, $16

// min87 replaces Z1 with Go's min(Z1, 87); clobbers Z2, Z3.
#define min87 \
	VMINPS Z17, Z1, Z2; \
	VMINPS Z1, Z2, Z3; \
	VPORD  Z2, Z3, Z1

// func geluAsm(dst, src *float32, n int64)
// dst[i] = x·1/(1 + e^min(−z, 87)), z = x·(k2 + k2·0.044715·x·x).
TEXT ·geluAsm(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	loadExp
	VBROADCASTSS actConsts<>+0(SB), Z25
	VBROADCASTSS actConsts<>+4(SB), Z26

geluLoop:
	CMPQ    CX, $16
	JLT     geluDone
	VMOVUPS (SI), Z0
	VMULPS  Z0, Z25, Z1
	VMULPS  Z0, Z1, Z1
	VADDPS  Z26, Z1, Z1
	VMULPS  Z0, Z1, Z1
	VPXORD  Z16, Z1, Z1
	min87
	expf32x16
	VADDPS  Z23, Z1, Z1
	VDIVPS  Z1, Z23, Z1
	VMULPS  Z0, Z1, Z1
	VMOVUPS Z1, (DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	SUBQ    $16, CX
	JMP     geluLoop

geluDone:
	VZEROUPPER
	RET

// func sigmoidAsm(dst, src *float32, n int64)
// dst[i] = 1/(1 + e^min(−x, 87)).
TEXT ·sigmoidAsm(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	loadExp

sigmoidLoop:
	CMPQ    CX, $16
	JLT     sigmoidDone
	VMOVUPS (SI), Z0
	VPXORD  Z16, Z0, Z1
	min87
	expf32x16
	VADDPS  Z23, Z1, Z1
	VDIVPS  Z1, Z23, Z1
	VMOVUPS Z1, (DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	SUBQ    $16, CX
	JMP     sigmoidLoop

sigmoidDone:
	VZEROUPPER
	RET

// func tanhAsm(dst, src *float32, n int64)
// dst[i] = sign(x)·(1−e)/(1+e), e = e^(|x|·−2).
TEXT ·tanhAsm(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	loadExp
	VBROADCASTSS actConsts<>+8(SB), Z25
	VPBROADCASTD actConsts<>+12(SB), Z26

tanhLoop:
	CMPQ    CX, $16
	JLT     tanhDone
	VMOVUPS (SI), Z0
	VPANDD  Z26, Z0, Z1
	VMULPS  Z25, Z1, Z1
	expf32x16
	VSUBPS  Z1, Z23, Z2
	VADDPS  Z23, Z1, Z1
	VDIVPS  Z1, Z2, Z1
	VPANDD  Z16, Z0, Z3
	VPORD   Z3, Z1, Z1
	VMOVUPS Z1, (DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	SUBQ    $16, CX
	JMP     tanhLoop

tanhDone:
	VZEROUPPER
	RET
