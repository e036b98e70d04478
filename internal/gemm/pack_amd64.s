//go:build !noasm

// AVX-512F body of PackA: sixteen columns of one four-row panel per
// step, as one 4×16 transpose. The four rows are loaded (a row past the
// block's last loads as zeros under an all-zero mask, which reads
// nothing), rows 0/1 and 2/3 are interleaved element by element, and
// those pairs are interleaved two elements at a time, which leaves the
// panel's l-major order: ap[l·MR + r] = a[r·lda + l]. Only moves and
// permutes touch the data, so every bit is copied, NaN payloads
// included. Register plan:
//
//	Z0..Z3    rows 0..3 of sixteen columns
//	Z4..Z7    row pairs 0/1 and 2/3, interleaved (columns 0–7, 8–15)
//	Z8, Z9    dword interleave indices (low and high eight columns)
//	Z10, Z11  qword interleave indices (low and high four pairs)
//	Z12..Z15  the panel's next 64 elements
//	R11..R14  row pointers (row 0's for rows past the block)
//	K2..K4    rows 1..3 live (0xffff) or past the block (0)
//	DI=panel  SI=row 0  CX=rows left  DX=column offset  BX=panel cursor
//	R8=lda·4  R9=k16·4  R10=k·MR·4 (one panel)

#include "textflag.h"

// packIdx holds, in order, the dword indices that interleave the low and
// the high eight elements of two rows and the qword indices that
// interleave the low and the high four pairs of two row pairs.
DATA packIdx<>+0(SB)/4, $0
DATA packIdx<>+4(SB)/4, $16
DATA packIdx<>+8(SB)/4, $1
DATA packIdx<>+12(SB)/4, $17
DATA packIdx<>+16(SB)/4, $2
DATA packIdx<>+20(SB)/4, $18
DATA packIdx<>+24(SB)/4, $3
DATA packIdx<>+28(SB)/4, $19
DATA packIdx<>+32(SB)/4, $4
DATA packIdx<>+36(SB)/4, $20
DATA packIdx<>+40(SB)/4, $5
DATA packIdx<>+44(SB)/4, $21
DATA packIdx<>+48(SB)/4, $6
DATA packIdx<>+52(SB)/4, $22
DATA packIdx<>+56(SB)/4, $7
DATA packIdx<>+60(SB)/4, $23
DATA packIdx<>+64(SB)/4, $8
DATA packIdx<>+68(SB)/4, $24
DATA packIdx<>+72(SB)/4, $9
DATA packIdx<>+76(SB)/4, $25
DATA packIdx<>+80(SB)/4, $10
DATA packIdx<>+84(SB)/4, $26
DATA packIdx<>+88(SB)/4, $11
DATA packIdx<>+92(SB)/4, $27
DATA packIdx<>+96(SB)/4, $12
DATA packIdx<>+100(SB)/4, $28
DATA packIdx<>+104(SB)/4, $13
DATA packIdx<>+108(SB)/4, $29
DATA packIdx<>+112(SB)/4, $14
DATA packIdx<>+116(SB)/4, $30
DATA packIdx<>+120(SB)/4, $15
DATA packIdx<>+124(SB)/4, $31
DATA packIdx<>+128(SB)/8, $0
DATA packIdx<>+136(SB)/8, $8
DATA packIdx<>+144(SB)/8, $1
DATA packIdx<>+152(SB)/8, $9
DATA packIdx<>+160(SB)/8, $2
DATA packIdx<>+168(SB)/8, $10
DATA packIdx<>+176(SB)/8, $3
DATA packIdx<>+184(SB)/8, $11
DATA packIdx<>+192(SB)/8, $4
DATA packIdx<>+200(SB)/8, $12
DATA packIdx<>+208(SB)/8, $5
DATA packIdx<>+216(SB)/8, $13
DATA packIdx<>+224(SB)/8, $6
DATA packIdx<>+232(SB)/8, $14
DATA packIdx<>+240(SB)/8, $7
DATA packIdx<>+248(SB)/8, $15
GLOBL packIdx<>(SB), RODATA|NOPTR, $256

// func packAAsm(ap, a *float32, m, k, lda, k16 int64)
TEXT ·packAAsm(SB), NOSPLIT, $0-48
	MOVQ      ap+0(FP), DI
	MOVQ      a+8(FP), SI
	MOVQ      m+16(FP), CX
	MOVQ      k+24(FP), R10
	SHLQ      $4, R10
	MOVQ      lda+32(FP), R8
	SHLQ      $2, R8
	MOVQ      k16+40(FP), R9
	SHLQ      $2, R9
	VMOVDQU32 packIdx<>+0(SB), Z8
	VMOVDQU32 packIdx<>+64(SB), Z9
	VMOVDQU64 packIdx<>+128(SB), Z10
	VMOVDQU64 packIdx<>+192(SB), Z11
	MOVL      $0xffff, AX

panel:
	MOVQ    SI, R11
	LEAQ    (SI)(R8*1), R12
	LEAQ    (R12)(R8*1), R13
	LEAQ    (R13)(R8*1), R14
	XORL    DX, DX
	CMPQ    CX, $2
	CMOVLGE AX, DX
	CMOVQLT SI, R12
	KMOVW   DX, K2
	XORL    DX, DX
	CMPQ    CX, $3
	CMOVLGE AX, DX
	CMOVQLT SI, R13
	KMOVW   DX, K3
	XORL    DX, DX
	CMPQ    CX, $4
	CMOVLGE AX, DX
	CMOVQLT SI, R14
	KMOVW   DX, K4
	XORL    DX, DX
	MOVQ    DI, BX

column:
	VMOVUPS   (R11)(DX*1), Z0
	VMOVUPS.Z (R12)(DX*1), K2, Z1
	VMOVUPS.Z (R13)(DX*1), K3, Z2
	VMOVUPS.Z (R14)(DX*1), K4, Z3
	VMOVDQA32 Z8, Z4
	VPERMI2PS Z1, Z0, Z4
	VMOVDQA32 Z9, Z5
	VPERMI2PS Z1, Z0, Z5
	VMOVDQA32 Z8, Z6
	VPERMI2PS Z3, Z2, Z6
	VMOVDQA32 Z9, Z7
	VPERMI2PS Z3, Z2, Z7
	VMOVDQA64 Z10, Z12
	VPERMI2PD Z6, Z4, Z12
	VMOVDQA64 Z11, Z13
	VPERMI2PD Z6, Z4, Z13
	VMOVDQA64 Z10, Z14
	VPERMI2PD Z7, Z5, Z14
	VMOVDQA64 Z11, Z15
	VPERMI2PD Z7, Z5, Z15
	VMOVUPS   Z12, (BX)
	VMOVUPS   Z13, 64(BX)
	VMOVUPS   Z14, 128(BX)
	VMOVUPS   Z15, 192(BX)
	ADDQ      $256, BX
	ADDQ      $64, DX
	CMPQ      DX, R9
	JLT       column
	ADDQ      R10, DI
	LEAQ      (SI)(R8*4), SI
	SUBQ      $4, CX
	JGT       panel
	VZEROUPPER
	RET
