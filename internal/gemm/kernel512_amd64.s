//go:build !noasm

// AVX-512F tile-pair micro-kernels: the f32 and f16 kernels of
// kernel_amd64.s over two A panels and two B panels at once, an 8×32
// block per call. Register plan:
//
//	Z0..Z15   8×32 accumulator block: row ρ (A panel ρ/4, panel row ρ%4)
//	          owns Z(2ρ) for B panel jp and Z(2ρ+1) for B panel jp+1
//	Z16, Z17  one packed row of B panels jp and jp+1 (16 lanes each)
//	Z18..Z25  the eight A values of one l step, broadcast
//	AX, DX    A panels ip and ip+1 (DX = AX + k·MR·4)
//	BX, SI    B panels jp and jp+1 (SI = BX + k·NR·4, or k·NR·2 for
//	          half-width panels)
//	DI=tile  CX=k counter
//
// Every accumulator walks panel rows in ascending l with one fused
// multiply-add per step, the instruction the 4×16 kernels issue per
// element: each output element is the same chain, so the same bits. The
// block is stored as four consecutive MR×NR tiles in the order
// (ip, jp), (ip, jp+1), (ip+1, jp), (ip+1, jp+1).

#include "textflag.h"

// f32x2Step is one l step: the two B rows are in Z16, Z17; broadcast
// the eight A values and issue the sixteen fused multiply-adds.
#define f32x2Step \
	VBROADCASTSS (AX), Z18; \
	VBROADCASTSS 4(AX), Z19; \
	VBROADCASTSS 8(AX), Z20; \
	VBROADCASTSS 12(AX), Z21; \
	VBROADCASTSS (DX), Z22; \
	VBROADCASTSS 4(DX), Z23; \
	VBROADCASTSS 8(DX), Z24; \
	VBROADCASTSS 12(DX), Z25; \
	VFMADD231PS  Z16, Z18, Z0; \
	VFMADD231PS  Z17, Z18, Z1; \
	VFMADD231PS  Z16, Z19, Z2; \
	VFMADD231PS  Z17, Z19, Z3; \
	VFMADD231PS  Z16, Z20, Z4; \
	VFMADD231PS  Z17, Z20, Z5; \
	VFMADD231PS  Z16, Z21, Z6; \
	VFMADD231PS  Z17, Z21, Z7; \
	VFMADD231PS  Z16, Z22, Z8; \
	VFMADD231PS  Z17, Z22, Z9; \
	VFMADD231PS  Z16, Z23, Z10; \
	VFMADD231PS  Z17, Z23, Z11; \
	VFMADD231PS  Z16, Z24, Z12; \
	VFMADD231PS  Z17, Z24, Z13; \
	VFMADD231PS  Z16, Z25, Z14; \
	VFMADD231PS  Z17, Z25, Z15; \
	ADDQ         $16, AX; \
	ADDQ         $16, DX

#define zeroAcc \
	VPXORD Z0, Z0, Z0; \
	VPXORD Z1, Z1, Z1; \
	VPXORD Z2, Z2, Z2; \
	VPXORD Z3, Z3, Z3; \
	VPXORD Z4, Z4, Z4; \
	VPXORD Z5, Z5, Z5; \
	VPXORD Z6, Z6, Z6; \
	VPXORD Z7, Z7, Z7; \
	VPXORD Z8, Z8, Z8; \
	VPXORD Z9, Z9, Z9; \
	VPXORD Z10, Z10, Z10; \
	VPXORD Z11, Z11, Z11; \
	VPXORD Z12, Z12, Z12; \
	VPXORD Z13, Z13, Z13; \
	VPXORD Z14, Z14, Z14; \
	VPXORD Z15, Z15, Z15

// storeAcc writes the block as tiles (ip, jp), (ip, jp+1), (ip+1, jp),
// (ip+1, jp+1), each MR rows of NR floats.
#define storeAcc \
	VMOVUPS Z0, (DI); \
	VMOVUPS Z2, 64(DI); \
	VMOVUPS Z4, 128(DI); \
	VMOVUPS Z6, 192(DI); \
	VMOVUPS Z1, 256(DI); \
	VMOVUPS Z3, 320(DI); \
	VMOVUPS Z5, 384(DI); \
	VMOVUPS Z7, 448(DI); \
	VMOVUPS Z8, 512(DI); \
	VMOVUPS Z10, 576(DI); \
	VMOVUPS Z12, 640(DI); \
	VMOVUPS Z14, 704(DI); \
	VMOVUPS Z9, 768(DI); \
	VMOVUPS Z11, 832(DI); \
	VMOVUPS Z13, 896(DI); \
	VMOVUPS Z15, 960(DI)

// func kernF32x2Asm(ap, bp, tile *float32, k int64)
// tile[s][r][c] = Σ_l ap[(s/2)·k·MR + l·MR + r] · bp[(s%2)·k·NR + l·NR + c].
TEXT ·kernF32x2Asm(SB), NOSPLIT, $0-32
	MOVQ ap+0(FP), AX
	MOVQ bp+8(FP), BX
	MOVQ tile+16(FP), DI
	MOVQ k+24(FP), CX

	MOVQ CX, R8
	SHLQ $4, R8  // k·MR·4
	LEAQ (AX)(R8*1), DX
	SHLQ $2, R8  // k·NR·4
	LEAQ (BX)(R8*1), SI

	zeroAcc

f32x2loop:
	VMOVUPS (BX), Z16
	VMOVUPS (SI), Z17
	f32x2Step
	ADDQ    $64, BX
	ADDQ    $64, SI
	DECQ    CX
	JNZ     f32x2loop

	storeAcc
	VZEROUPPER
	RET

// func kernF16x2Asm(ap *float32, bp *uint16, tile *float32, k int64)
// kernF32x2Asm with both B panels stored as raw float16 bits, widened at
// load by vcvtph2ps (exact, as in kernF16Asm).
TEXT ·kernF16x2Asm(SB), NOSPLIT, $0-32
	MOVQ ap+0(FP), AX
	MOVQ bp+8(FP), BX
	MOVQ tile+16(FP), DI
	MOVQ k+24(FP), CX

	MOVQ CX, R8
	SHLQ $4, R8  // k·MR·4
	LEAQ (AX)(R8*1), DX
	SHLQ $1, R8  // k·NR·2
	LEAQ (BX)(R8*1), SI

	zeroAcc

f16x2loop:
	VCVTPH2PS (BX), Z16
	VCVTPH2PS (SI), Z17
	f32x2Step
	ADDQ      $32, BX
	ADDQ      $32, SI
	DECQ      CX
	JNZ       f16x2loop

	storeAcc
	VZEROUPPER
	RET

// One-panel kernels: the f32 and f16 kernels over one A panel and four
// consecutive B panels, a 4×64 block per call — the tiles the tile pairs
// leave over (the odd last A panel, and every product of at most four
// rows). Register plan:
//
//	Z0..Z15   4×64 accumulator block: panel row r owns Z(4r+j) for B
//	          panel jp+j
//	Z16..Z19  one packed row of B panels jp..jp+3
//	Z20..Z23  the four A values of one l step, broadcast
//	AX        the A panel
//	BX        B panel jp; R8 = the panel stride (k·NR·4, or k·NR·2 for
//	          half-width panels), R9 = 3·R8
//	DI=tile  CX=k counter
//
// The two-row forms keep only panel rows 0 and 1 (Z0..Z7, two
// broadcasts, eight fused multiply-adds per step) for a panel with at
// most two live rows, and write only those rows of the four tiles. Every
// accumulator is the 4×16 kernels' chain: from zero, one fused
// multiply-add per l in ascending order. The block is stored as four
// consecutive MR×NR tiles (ip, jp), …, (ip, jp+3).

#define zeroAcc8 \
	VPXORD Z0, Z0, Z0; \
	VPXORD Z1, Z1, Z1; \
	VPXORD Z2, Z2, Z2; \
	VPXORD Z3, Z3, Z3; \
	VPXORD Z4, Z4, Z4; \
	VPXORD Z5, Z5, Z5; \
	VPXORD Z6, Z6, Z6; \
	VPXORD Z7, Z7, Z7

// rowStep issues the four fused multiply-adds of panel row r: the A
// value broadcast in za against the B rows in Z16..Z19.
#define rowStep(za, z0, z1, z2, z3) \
	VFMADD231PS Z16, za, z0; \
	VFMADD231PS Z17, za, z1; \
	VFMADD231PS Z18, za, z2; \
	VFMADD231PS Z19, za, z3

#define x4Step \
	VBROADCASTSS (AX), Z20; \
	VBROADCASTSS 4(AX), Z21; \
	VBROADCASTSS 8(AX), Z22; \
	VBROADCASTSS 12(AX), Z23; \
	rowStep(Z20, Z0, Z1, Z2, Z3); \
	rowStep(Z21, Z4, Z5, Z6, Z7); \
	rowStep(Z22, Z8, Z9, Z10, Z11); \
	rowStep(Z23, Z12, Z13, Z14, Z15); \
	ADDQ $16, AX

#define x4r2Step \
	VBROADCASTSS (AX), Z20; \
	VBROADCASTSS 4(AX), Z21; \
	rowStep(Z20, Z0, Z1, Z2, Z3); \
	rowStep(Z21, Z4, Z5, Z6, Z7); \
	ADDQ $16, AX

// storeRows01 and storeRows23 write panel rows 0–1 and 2–3 of the four
// tiles: tile j row r is at DI + j·256 + r·64.
#define storeRows01 \
	VMOVUPS Z0, (DI); \
	VMOVUPS Z1, 256(DI); \
	VMOVUPS Z2, 512(DI); \
	VMOVUPS Z3, 768(DI); \
	VMOVUPS Z4, 64(DI); \
	VMOVUPS Z5, 320(DI); \
	VMOVUPS Z6, 576(DI); \
	VMOVUPS Z7, 832(DI)

#define storeRows23 \
	VMOVUPS Z8, 128(DI); \
	VMOVUPS Z9, 384(DI); \
	VMOVUPS Z10, 640(DI); \
	VMOVUPS Z11, 896(DI); \
	VMOVUPS Z12, 192(DI); \
	VMOVUPS Z13, 448(DI); \
	VMOVUPS Z14, 704(DI); \
	VMOVUPS Z15, 960(DI)

// x4Args loads the arguments and the B panel strides; shift turns k
// into the byte stride of one B panel (6: k·NR·4, 5: k·NR·2).
#define x4Args(shift) \
	MOVQ ap+0(FP), AX; \
	MOVQ bp+8(FP), BX; \
	MOVQ tile+16(FP), DI; \
	MOVQ k+24(FP), CX; \
	MOVQ CX, R8; \
	SHLQ $shift, R8; \
	LEAQ (R8)(R8*2), R9

#define loadF32x4 \
	VMOVUPS (BX), Z16; \
	VMOVUPS (BX)(R8*1), Z17; \
	VMOVUPS (BX)(R8*2), Z18; \
	VMOVUPS (BX)(R9*1), Z19; \
	ADDQ    $64, BX

#define loadF16x4 \
	VCVTPH2PS (BX), Z16; \
	VCVTPH2PS (BX)(R8*1), Z17; \
	VCVTPH2PS (BX)(R8*2), Z18; \
	VCVTPH2PS (BX)(R9*1), Z19; \
	ADDQ      $32, BX

// func kernF32x4Asm(ap, bp, tile *float32, k int64)
// tile[j][r][c] = Σ_l ap[l·MR + r] · bp[j·k·NR + l·NR + c], j = 0..3.
TEXT ·kernF32x4Asm(SB), NOSPLIT, $0-32
	x4Args(6)
	zeroAcc

f32x4loop:
	loadF32x4
	x4Step
	DECQ CX
	JNZ  f32x4loop

	storeRows01
	storeRows23
	VZEROUPPER
	RET

// func kernF16x4Asm(ap *float32, bp *uint16, tile *float32, k int64)
// kernF32x4Asm with the B panels stored as raw float16 bits, widened at
// load by vcvtph2ps (exact, as in kernF16Asm).
TEXT ·kernF16x4Asm(SB), NOSPLIT, $0-32
	x4Args(5)
	zeroAcc

f16x4loop:
	loadF16x4
	x4Step
	DECQ CX
	JNZ  f16x4loop

	storeRows01
	storeRows23
	VZEROUPPER
	RET

// func kernF32x4R2Asm(ap, bp, tile *float32, k int64)
// kernF32x4Asm for panel rows 0 and 1 only; rows 2 and 3 of the tiles
// are left as they were.
TEXT ·kernF32x4R2Asm(SB), NOSPLIT, $0-32
	x4Args(6)
	zeroAcc8

f32x4r2loop:
	loadF32x4
	x4r2Step
	DECQ CX
	JNZ  f32x4r2loop

	storeRows01
	VZEROUPPER
	RET

// func kernF16x4R2Asm(ap *float32, bp *uint16, tile *float32, k int64)
// kernF16x4Asm for panel rows 0 and 1 only.
TEXT ·kernF16x4R2Asm(SB), NOSPLIT, $0-32
	x4Args(5)
	zeroAcc8

f16x4r2loop:
	loadF16x4
	x4r2Step
	DECQ CX
	JNZ  f16x4r2loop

	storeRows01
	VZEROUPPER
	RET
