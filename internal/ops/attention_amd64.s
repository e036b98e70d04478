//go:build !noasm

// AVX-512F bodies of fused attention's passes (attention.go): the
// streaming softmax's attnTileMax, attnTileExp and attnTileStore over the
// first n16 elements of every row of a tile, n16 a positive multiple of
// 16, with the bits of the scalar loops. The exponential is expf32x16
// (exp_amd64.h). Where both operands of an operation may be NaN, the
// operand order is the compiled scalar code's (an SSE "OP b, a" is
// "VOP b, a, dst"), which decides the surviving payload:
//
//	s − m          SUBSS m, s
//	quad sum       ADDSS p0, p1; ADDSS ·, p2; ADDSS ·, p3 (the later
//	               element is the first operand: the last NaN wins)
//	l + float64(q) ADDSD q, l (the running total is the first operand)
//	acc·inv·scale  MULSS inv, acc; MULSS scale, ·
//
// The row max is MAXPS with the score as its first operand: s > m ? s : m
// per lane, so a NaN score never replaces the max, as in the scalar loop.
// The lanes then fold to one; only a tie of +0 and −0 can resolve to the
// other zero than the scalar loop's first-seen one, and e^(s−m) is the
// same for either.
//
// Register plan, beside exp_amd64.h's:
//
//	Z0        sixteen scores (or accumulator elements)
//	Z2..Z4    working values
//	X9        a row's float64 running total (rowsExpAsm)
//	Z25, Z26  a row's broadcast m (or inv), and the broadcast scale
//	K3        lanes 0, 4, 8 and 12 (the quad sums)
//	SI=row  DI=dst  DX=column offset  R8=row stride  R10=n16·4
//	BX=m (or inv)  R11=l  CX=rows left

#include "textflag.h"
#include "exp_amd64.h"

// func rowsMaxAsm(st *float32, ld, n16, rows int64, m *float32)
// m[i] = max(m[i], row i) under s > m.
TEXT ·rowsMaxAsm(SB), NOSPLIT, $0-40
	MOVQ st+0(FP), SI
	MOVQ ld+8(FP), R8
	SHLQ $2, R8
	MOVQ n16+16(FP), R10
	SHLQ $2, R10
	MOVQ rows+24(FP), CX
	MOVQ m+32(FP), BX

maxRow:
	VBROADCASTSS (BX), Z2
	XORQ         DX, DX

maxCol:
	VMOVUPS       (SI)(DX*1), Z0
	VMAXPS        Z2, Z0, Z2
	ADDQ          $64, DX
	CMPQ          DX, R10
	JLT           maxCol
	VEXTRACTF64X4 $1, Z2, Y3
	VMAXPS        Y3, Y2, Y2
	VEXTRACTF128  $1, Y2, X3
	VMAXPS        X3, X2, X2
	VPERMILPS     $0x0e, X2, X3
	VMAXPS        X3, X2, X2
	VPERMILPS     $0x01, X2, X3
	VMAXSS        X3, X2, X2
	VMOVSS        X2, (BX)
	ADDQ          R8, SI
	ADDQ          $4, BX
	DECQ          CX
	JNZ           maxRow
	VZEROUPPER
	RET

// func rowsExpAsm(st *float32, ld, n16, rows int64, m *float32, l *float64)
// row i's s = expf32(s − m[i]); l[i] += the row's quad sums, in order.
TEXT ·rowsExpAsm(SB), NOSPLIT, $0-48
	MOVQ  st+0(FP), SI
	MOVQ  ld+8(FP), R8
	SHLQ  $2, R8
	MOVQ  n16+16(FP), R10
	SHLQ  $2, R10
	MOVQ  rows+24(FP), CX
	MOVQ  m+32(FP), BX
	MOVQ  l+40(FP), R11
	MOVL  $0x1111, AX
	KMOVW AX, K3
	loadExp

expRow:
	VBROADCASTSS (BX), Z25
	VMOVSD       (R11), X9
	XORQ         DX, DX

expCol:
	VMOVUPS      (SI)(DX*1), Z0
	VSUBPS       Z25, Z0, Z1
	expf32x16
	VMOVUPS      Z1, (SI)(DX*1)
	VPERMILPS    $0x01, Z1, Z2
	VADDPS       Z1, Z2, Z2
	VPERMILPS    $0x02, Z1, Z3
	VADDPS       Z2, Z3, Z2
	VPERMILPS    $0x03, Z1, Z3
	VADDPS       Z2, Z3, Z2
	VCOMPRESSPS  Z2, K3, Z3
	VCVTPS2PD    X3, Y4
	VADDSD       X4, X9, X9
	VPERMILPD    $0x01, X4, X3
	VADDSD       X3, X9, X9
	VEXTRACTF128 $1, Y4, X4
	VADDSD       X4, X9, X9
	VPERMILPD    $0x01, X4, X3
	VADDSD       X3, X9, X9
	ADDQ         $64, DX
	CMPQ         DX, R10
	JLT          expCol
	VMOVSD       X9, (R11)
	ADDQ         R8, SI
	ADDQ         $4, BX
	ADDQ         $8, R11
	DECQ         CX
	JNZ          expRow
	VZEROUPPER
	RET

// func storeRowsAsm(dst *float32, ldd int64, src *float32, n, n16, rows int64, inv *float32, scale float32)
// dst[i·ldd + x] = src[i·n + x]·inv[i]·scale.
TEXT ·storeRowsAsm(SB), NOSPLIT, $0-60
	MOVQ         dst+0(FP), DI
	MOVQ         ldd+8(FP), R8
	SHLQ         $2, R8
	MOVQ         src+16(FP), SI
	MOVQ         n+24(FP), R9
	SHLQ         $2, R9
	MOVQ         n16+32(FP), R10
	SHLQ         $2, R10
	MOVQ         rows+40(FP), CX
	MOVQ         inv+48(FP), BX
	VBROADCASTSS scale+56(FP), Z26

storeRow:
	VBROADCASTSS (BX), Z25
	XORQ         DX, DX

storeCol:
	VMOVUPS (SI)(DX*1), Z0
	VMULPS  Z25, Z0, Z0
	VMULPS  Z26, Z0, Z0
	VMOVUPS Z0, (DI)(DX*1)
	ADDQ    $64, DX
	CMPQ    DX, R10
	JLT     storeCol
	ADDQ    R8, DI
	ADDQ    R9, SI
	ADDQ    $4, BX
	DECQ    CX
	JNZ     storeRow
	VZEROUPPER
	RET
