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

// AVX-512F body of PackBConv for stride-1 windows (packBConvWide fills
// the table). Per channel and tap row ky, each run in turn writes the KW
// panel rows (ky, kx): a masked load of its enabled lanes into zeros,
// stored whole by the first run and under the same mask by later runs,
// so each lane ends up with its own run's value or, enabled by none,
// zero. A run whose tap row ky is outside the image loads nothing; if it
// is the first run, it stores zero rows. Lanes are only moved, so every
// bit is copied. Register plan:
//
//	Z0        the run's lanes of one panel row
//	K1        the run's column mask for kx
//	DI=panel rows (ci, ky, ·)  SI=channel plane  R8=table  CX=channels left
//	BX=ky  R13=plane+ky·w  AX=run  R10=runs  R9=kx left
//	R14=load cursor  R11=colMask cursor  R12=panel row cursor  DX=scratch

// func packConvAsm(p, img *float32, t *convRuns, c, kh, kw, runs, w, plane int64)
TEXT ·packConvAsm(SB), NOSPLIT, $0-72
	MOVQ p+0(FP), DI
	MOVQ img+8(FP), SI
	MOVQ t+16(FP), R8
	MOVQ c+24(FP), CX
	MOVQ runs+48(FP), R10

channel:
	XORL BX, BX
	MOVQ SI, R13

row:
	XORL AX, AX

run:
	MOVQ    kw+40(FP), R9
	MOVQ    DI, R12
	MOVQ    AX, DX
	SHLQ    $4, DX
	ADDQ    BX, DX
	CMPB    64(R8)(DX*1), $0
	JEQ     outside
	MOVLQSX (R8)(AX*4), DX
	LEAQ    (R13)(DX*4), R14
	MOVQ    AX, DX
	SHLQ    $5, DX
	LEAQ    320(R8)(DX*1), R11
	TESTQ   AX, AX
	JNZ     merge

first:
	KMOVW     (R11), K1
	VMOVUPS.Z (R14), K1, Z0
	VMOVUPS   Z0, (R12)
	ADDQ      $4, R14
	ADDQ      $2, R11
	ADDQ      $64, R12
	DECQ      R9
	JNZ       first
	JMP       next

merge:
	KMOVW     (R11), K1
	VMOVUPS.Z (R14), K1, Z0
	VMOVUPS   Z0, K1, (R12)
	ADDQ      $4, R14
	ADDQ      $2, R11
	ADDQ      $64, R12
	DECQ      R9
	JNZ       merge
	JMP       next

outside:
	TESTQ  AX, AX
	JNZ    next
	VPXORD Z0, Z0, Z0

zero:
	VMOVUPS Z0, (R12)
	ADDQ    $64, R12
	DECQ    R9
	JNZ     zero

next:
	INCQ AX
	CMPQ AX, R10
	JLT  run
	MOVQ kw+40(FP), DX
	SHLQ $6, DX
	ADDQ DX, DI
	MOVQ w+56(FP), DX
	LEAQ (R13)(DX*4), R13
	INCQ BX
	CMPQ BX, kh+32(FP)
	JLT  row
	MOVQ plane+64(FP), DX
	LEAQ (SI)(DX*4), SI
	DECQ CX
	JNZ  channel
	VZEROUPPER
	RET

// AVX-512F body of PackBT: sixteen panel rows of one panel per step, as
// one 16×16 transpose. The panel's sixteen operand rows are loaded (a
// row past the block's last loads as zeros under an all-zero mask, which
// reads nothing), interleaved element by element (VUNPCKLPS/VUNPCKHPS),
// then two elements at a time (VUNPCKLPD/VUNPCKHPD), which leaves each
// 128-bit lane holding four rows' values of one column, and the lanes of
// four rows are then gathered into each panel row by two rounds of
// VSHUFF32X4. The sixteen panel rows are 1 KiB of contiguous panel. Only
// moves and permutes touch the data, so every bit is copied, NaN
// payloads included. Register plan:
//
//	Z0..Z15   operand rows, then their column groups, then panel rows
//	Z16..Z31  the interleaves between those stages
//	K1        the live mask of the row being loaded
//	R10..R13  rows 0, 4, 8 and 12 of the panel at the current columns
//	DI=panel  SI=panel's row 0  CX=rows left  BX=panel cursor  AX=column offset
//	R8=ldb·4  R9=3·ldb·4  DX=k16·4  R14=k·NR·4 (one panel)  R15=row masks

// btLive<> is sixteen live masks then sixteen dead ones: from
// btLive<>+2·(16−rows), row c's mask is live exactly when c < rows.
DATA btLive<>+0(SB)/8, $-1
DATA btLive<>+8(SB)/8, $-1
DATA btLive<>+16(SB)/8, $-1
DATA btLive<>+24(SB)/8, $-1
DATA btLive<>+32(SB)/8, $0
DATA btLive<>+40(SB)/8, $0
DATA btLive<>+48(SB)/8, $0
DATA btLive<>+56(SB)/8, $0
GLOBL btLive<>(SB), RODATA|NOPTR, $64

// func packBTAsm(bp, b *float32, n, k, ldb, k16 int64)
TEXT ·packBTAsm(SB), NOSPLIT, $0-48
	MOVQ bp+0(FP), DI
	MOVQ b+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ k+24(FP), R14
	SHLQ $6, R14
	MOVQ ldb+32(FP), R8
	SHLQ $2, R8
	LEAQ (R8)(R8*2), R9
	MOVQ k16+40(FP), DX
	SHLQ $2, DX

panel:
	MOVQ    $16, BX
	CMPQ    CX, BX
	CMOVQLT CX, BX
	NEGQ    BX
	LEAQ    btLive<>+32(SB), R15
	LEAQ    (R15)(BX*2), R15
	MOVQ    SI, R10
	LEAQ    (SI)(R8*4), R11
	LEAQ    (R11)(R8*4), R12
	LEAQ    (R12)(R8*4), R13
	MOVQ    DI, BX
	XORL    AX, AX

block:
	KMOVW     0(R15), K1
	VMOVUPS.Z (R10), K1, Z0
	KMOVW     2(R15), K1
	VMOVUPS.Z (R10)(R8*1), K1, Z1
	KMOVW     4(R15), K1
	VMOVUPS.Z (R10)(R8*2), K1, Z2
	KMOVW     6(R15), K1
	VMOVUPS.Z (R10)(R9*1), K1, Z3
	KMOVW     8(R15), K1
	VMOVUPS.Z (R11), K1, Z4
	KMOVW     10(R15), K1
	VMOVUPS.Z (R11)(R8*1), K1, Z5
	KMOVW     12(R15), K1
	VMOVUPS.Z (R11)(R8*2), K1, Z6
	KMOVW     14(R15), K1
	VMOVUPS.Z (R11)(R9*1), K1, Z7
	KMOVW     16(R15), K1
	VMOVUPS.Z (R12), K1, Z8
	KMOVW     18(R15), K1
	VMOVUPS.Z (R12)(R8*1), K1, Z9
	KMOVW     20(R15), K1
	VMOVUPS.Z (R12)(R8*2), K1, Z10
	KMOVW     22(R15), K1
	VMOVUPS.Z (R12)(R9*1), K1, Z11
	KMOVW     24(R15), K1
	VMOVUPS.Z (R13), K1, Z12
	KMOVW     26(R15), K1
	VMOVUPS.Z (R13)(R8*1), K1, Z13
	KMOVW     28(R15), K1
	VMOVUPS.Z (R13)(R8*2), K1, Z14
	KMOVW     30(R15), K1
	VMOVUPS.Z (R13)(R9*1), K1, Z15
	VUNPCKLPS Z1, Z0, Z16
	VUNPCKHPS Z1, Z0, Z17
	VUNPCKLPS Z3, Z2, Z18
	VUNPCKHPS Z3, Z2, Z19
	VUNPCKLPS Z5, Z4, Z20
	VUNPCKHPS Z5, Z4, Z21
	VUNPCKLPS Z7, Z6, Z22
	VUNPCKHPS Z7, Z6, Z23
	VUNPCKLPS Z9, Z8, Z24
	VUNPCKHPS Z9, Z8, Z25
	VUNPCKLPS Z11, Z10, Z26
	VUNPCKHPS Z11, Z10, Z27
	VUNPCKLPS Z13, Z12, Z28
	VUNPCKHPS Z13, Z12, Z29
	VUNPCKLPS Z15, Z14, Z30
	VUNPCKHPS Z15, Z14, Z31
	VUNPCKLPD Z18, Z16, Z0
	VUNPCKHPD Z18, Z16, Z1
	VUNPCKLPD Z19, Z17, Z2
	VUNPCKHPD Z19, Z17, Z3
	VUNPCKLPD Z22, Z20, Z4
	VUNPCKHPD Z22, Z20, Z5
	VUNPCKLPD Z23, Z21, Z6
	VUNPCKHPD Z23, Z21, Z7
	VUNPCKLPD Z26, Z24, Z8
	VUNPCKHPD Z26, Z24, Z9
	VUNPCKLPD Z27, Z25, Z10
	VUNPCKHPD Z27, Z25, Z11
	VUNPCKLPD Z30, Z28, Z12
	VUNPCKHPD Z30, Z28, Z13
	VUNPCKLPD Z31, Z29, Z14
	VUNPCKHPD Z31, Z29, Z15
	VSHUFF32X4 $0x44, Z4, Z0, Z16
	VSHUFF32X4 $0xee, Z4, Z0, Z17
	VSHUFF32X4 $0x44, Z12, Z8, Z18
	VSHUFF32X4 $0xee, Z12, Z8, Z19
	VSHUFF32X4 $0x44, Z5, Z1, Z20
	VSHUFF32X4 $0xee, Z5, Z1, Z21
	VSHUFF32X4 $0x44, Z13, Z9, Z22
	VSHUFF32X4 $0xee, Z13, Z9, Z23
	VSHUFF32X4 $0x44, Z6, Z2, Z24
	VSHUFF32X4 $0xee, Z6, Z2, Z25
	VSHUFF32X4 $0x44, Z14, Z10, Z26
	VSHUFF32X4 $0xee, Z14, Z10, Z27
	VSHUFF32X4 $0x44, Z7, Z3, Z28
	VSHUFF32X4 $0xee, Z7, Z3, Z29
	VSHUFF32X4 $0x44, Z15, Z11, Z30
	VSHUFF32X4 $0xee, Z15, Z11, Z31
	VSHUFF32X4 $0x88, Z18, Z16, Z0
	VSHUFF32X4 $0xdd, Z18, Z16, Z4
	VSHUFF32X4 $0x88, Z19, Z17, Z8
	VSHUFF32X4 $0xdd, Z19, Z17, Z12
	VSHUFF32X4 $0x88, Z22, Z20, Z1
	VSHUFF32X4 $0xdd, Z22, Z20, Z5
	VSHUFF32X4 $0x88, Z23, Z21, Z9
	VSHUFF32X4 $0xdd, Z23, Z21, Z13
	VSHUFF32X4 $0x88, Z26, Z24, Z2
	VSHUFF32X4 $0xdd, Z26, Z24, Z6
	VSHUFF32X4 $0x88, Z27, Z25, Z10
	VSHUFF32X4 $0xdd, Z27, Z25, Z14
	VSHUFF32X4 $0x88, Z30, Z28, Z3
	VSHUFF32X4 $0xdd, Z30, Z28, Z7
	VSHUFF32X4 $0x88, Z31, Z29, Z11
	VSHUFF32X4 $0xdd, Z31, Z29, Z15
	VMOVUPS   Z0, (BX)
	VMOVUPS   Z1, 64(BX)
	VMOVUPS   Z2, 128(BX)
	VMOVUPS   Z3, 192(BX)
	VMOVUPS   Z4, 256(BX)
	VMOVUPS   Z5, 320(BX)
	VMOVUPS   Z6, 384(BX)
	VMOVUPS   Z7, 448(BX)
	VMOVUPS   Z8, 512(BX)
	VMOVUPS   Z9, 576(BX)
	VMOVUPS   Z10, 640(BX)
	VMOVUPS   Z11, 704(BX)
	VMOVUPS   Z12, 768(BX)
	VMOVUPS   Z13, 832(BX)
	VMOVUPS   Z14, 896(BX)
	VMOVUPS   Z15, 960(BX)
	ADDQ      $1024, BX
	ADDQ      $64, R10
	ADDQ      $64, R11
	ADDQ      $64, R12
	ADDQ      $64, R13
	ADDQ      $64, AX
	CMPQ      AX, DX
	JLT       block
	ADDQ      R14, DI
	LEAQ      (SI)(R8*8), SI
	LEAQ      (SI)(R8*8), SI
	SUBQ      $16, CX
	JGT       panel
	VZEROUPPER
	RET
