//go:build !noasm

// AVX2+FMA micro-kernels over packed panels. Register plan shared by all
// three kernels:
//
//	Y0..Y7   4×16 accumulator block (row r owns Y(2r), Y(2r+1))
//	Y8, Y9   one packed B panel row (16 lanes)
//	Y10      broadcast A value (f32/f16) or A int16 pair (i8)
//	Y11      vpmaddwd product temporary (i8 only)
//	AX=ap  BX=bp  DI=tile  CX=k counter
//
// Each kernel overwrites the tile (accumulates from zero) walking panel
// rows in ascending l order — one fused chain per output element, the
// package's documented accumulation order.

#include "textflag.h"

// func kernF32Asm(ap, bp, tile *float32, k int64)
// tile[r][c] = Σ_l ap[l*4+r] · bp[l*16+c], fused multiply-add per step.
TEXT ·kernF32Asm(SB), NOSPLIT, $0-32
	MOVQ ap+0(FP), AX
	MOVQ bp+8(FP), BX
	MOVQ tile+16(FP), DI
	MOVQ k+24(FP), CX

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7

f32loop:
	VMOVUPS      (BX), Y8
	VMOVUPS      32(BX), Y9
	VBROADCASTSS (AX), Y10
	VFMADD231PS  Y8, Y10, Y0
	VFMADD231PS  Y9, Y10, Y1
	VBROADCASTSS 4(AX), Y10
	VFMADD231PS  Y8, Y10, Y2
	VFMADD231PS  Y9, Y10, Y3
	VBROADCASTSS 8(AX), Y10
	VFMADD231PS  Y8, Y10, Y4
	VFMADD231PS  Y9, Y10, Y5
	VBROADCASTSS 12(AX), Y10
	VFMADD231PS  Y8, Y10, Y6
	VFMADD231PS  Y9, Y10, Y7
	ADDQ         $16, AX
	ADDQ         $64, BX
	DECQ         CX
	JNZ          f32loop

	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	VMOVUPS Y4, 128(DI)
	VMOVUPS Y5, 160(DI)
	VMOVUPS Y6, 192(DI)
	VMOVUPS Y7, 224(DI)
	VZEROUPPER
	RET

// func kernF16Asm(ap *float32, bp *uint16, tile *float32, k int64)
// kernF32Asm with the B panel stored as raw float16 bits, widened at
// load by vcvtph2ps (exact conversion; requires F16C).
TEXT ·kernF16Asm(SB), NOSPLIT, $0-32
	MOVQ ap+0(FP), AX
	MOVQ bp+8(FP), BX
	MOVQ tile+16(FP), DI
	MOVQ k+24(FP), CX

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7

f16loop:
	VCVTPH2PS    (BX), Y8
	VCVTPH2PS    16(BX), Y9
	VBROADCASTSS (AX), Y10
	VFMADD231PS  Y8, Y10, Y0
	VFMADD231PS  Y9, Y10, Y1
	VBROADCASTSS 4(AX), Y10
	VFMADD231PS  Y8, Y10, Y2
	VFMADD231PS  Y9, Y10, Y3
	VBROADCASTSS 8(AX), Y10
	VFMADD231PS  Y8, Y10, Y4
	VFMADD231PS  Y9, Y10, Y5
	VBROADCASTSS 12(AX), Y10
	VFMADD231PS  Y8, Y10, Y6
	VFMADD231PS  Y9, Y10, Y7
	ADDQ         $16, AX
	ADDQ         $32, BX
	DECQ         CX
	JNZ          f16loop

	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	VMOVUPS Y4, 128(DI)
	VMOVUPS Y5, 160(DI)
	VMOVUPS Y6, 192(DI)
	VMOVUPS Y7, 224(DI)
	VZEROUPPER
	RET

// func kernI8Asm(ap *int16, bp *int8, tile *int32, kp int64)
// Exact int8 path: B panel rows hold 16 columns × 2 int8 K-levels,
// sign-extended to int16 at load; A pairs broadcast as 32-bit units;
// vpmaddwd multiplies int16 pairs and sums horizontally into int32
// (exact — products ≤ 127², far inside int16-pair headroom), then
// vpaddd accumulates. tile[r][c] = Σ_l2 pair-dot(r, c, l2).
TEXT ·kernI8Asm(SB), NOSPLIT, $0-32
	MOVQ ap+0(FP), AX
	MOVQ bp+8(FP), BX
	MOVQ tile+16(FP), DI
	MOVQ kp+24(FP), CX

	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	VPXOR Y4, Y4, Y4
	VPXOR Y5, Y5, Y5
	VPXOR Y6, Y6, Y6
	VPXOR Y7, Y7, Y7

i8loop:
	VPMOVSXBW   (BX), Y8
	VPMOVSXBW   16(BX), Y9
	VPBROADCASTD (AX), Y10
	VPMADDWD    Y8, Y10, Y11
	VPADDD      Y11, Y0, Y0
	VPMADDWD    Y9, Y10, Y11
	VPADDD      Y11, Y1, Y1
	VPBROADCASTD 4(AX), Y10
	VPMADDWD    Y8, Y10, Y11
	VPADDD      Y11, Y2, Y2
	VPMADDWD    Y9, Y10, Y11
	VPADDD      Y11, Y3, Y3
	VPBROADCASTD 8(AX), Y10
	VPMADDWD    Y8, Y10, Y11
	VPADDD      Y11, Y4, Y4
	VPMADDWD    Y9, Y10, Y11
	VPADDD      Y11, Y5, Y5
	VPBROADCASTD 12(AX), Y10
	VPMADDWD    Y8, Y10, Y11
	VPADDD      Y11, Y6, Y6
	VPMADDWD    Y9, Y10, Y11
	VPADDD      Y11, Y7, Y7
	ADDQ        $16, AX
	ADDQ        $32, BX
	DECQ        CX
	JNZ         i8loop

	VMOVDQU Y0, (DI)
	VMOVDQU Y1, 32(DI)
	VMOVDQU Y2, 64(DI)
	VMOVDQU Y3, 96(DI)
	VMOVDQU Y4, 128(DI)
	VMOVDQU Y5, 160(DI)
	VMOVDQU Y6, 192(DI)
	VMOVDQU Y7, 224(DI)
	VZEROUPPER
	RET

// func kernI8VNNIAsm(ap *int16, bp *int8, tile *int32, kp int64)
// kernI8Asm with the two-instruction multiply-add pair fused into one
// vpdpwssd (EVEX, AVX512-VNNI + VL at 256-bit width): eight dot-
// accumulates per pair-step instead of sixteen ALU ops, the int8
// analogue of the f32 kernel's FMA density. Identical arithmetic —
// vpdpwssd computes the same exact int32 pair dot as vpmaddwd+vpaddd.
TEXT ·kernI8VNNIAsm(SB), NOSPLIT, $0-32
	MOVQ ap+0(FP), AX
	MOVQ bp+8(FP), BX
	MOVQ tile+16(FP), DI
	MOVQ kp+24(FP), CX

	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	VPXOR Y4, Y4, Y4
	VPXOR Y5, Y5, Y5
	VPXOR Y6, Y6, Y6
	VPXOR Y7, Y7, Y7

vnniloop:
	VPMOVSXBW    (BX), Y8
	VPMOVSXBW    16(BX), Y9
	VPBROADCASTD (AX), Y10
	VPDPWSSD     Y8, Y10, Y0
	VPDPWSSD     Y9, Y10, Y1
	VPBROADCASTD 4(AX), Y10
	VPDPWSSD     Y8, Y10, Y2
	VPDPWSSD     Y9, Y10, Y3
	VPBROADCASTD 8(AX), Y10
	VPDPWSSD     Y8, Y10, Y4
	VPDPWSSD     Y9, Y10, Y5
	VPBROADCASTD 12(AX), Y10
	VPDPWSSD     Y8, Y10, Y6
	VPDPWSSD     Y9, Y10, Y7
	ADDQ         $16, AX
	ADDQ         $32, BX
	DECQ         CX
	JNZ          vnniloop

	VMOVDQU Y0, (DI)
	VMOVDQU Y1, 32(DI)
	VMOVDQU Y2, 64(DI)
	VMOVDQU Y3, 96(DI)
	VMOVDQU Y4, 128(DI)
	VMOVDQU Y5, 160(DI)
	VMOVDQU Y6, 192(DI)
	VMOVDQU Y7, 224(DI)
	VZEROUPPER
	RET

// func storeTileAsm(dst *float32, ldd int64, src *float32, lds int64, tile *float32, rows int64, alpha float32, bias *float32)
// The interior-tile store of addTileF32: for r < rows and c < 16,
// dst[r*ldd+c] = (src[r*lds+c] + alpha·tile[r*16+c]) + bias[c], the bias
// add skipped when bias is nil; src is dst for an accumulating store and
// a zero row with lds = 0 for an overwriting one. Each multiply and add
// rounds on its own (no FMA) in the order of the scalar store, so the
// bits are the same; each sum keeps alpha·tile as its first operand, as
// the scalar code does.
TEXT ·storeTileAsm(SB), NOSPLIT, $0-64
	MOVQ         dst+0(FP), DI
	MOVQ         ldd+8(FP), DX
	SHLQ         $2, DX
	MOVQ         src+16(FP), R8
	MOVQ         lds+24(FP), R9
	SHLQ         $2, R9
	MOVQ         tile+32(FP), SI
	MOVQ         rows+40(FP), CX
	VBROADCASTSS alpha+48(FP), Y15
	MOVQ         bias+56(FP), BX
	TESTQ        BX, BX
	JZ           storeplain
	VMOVUPS      (BX), Y13
	VMOVUPS      32(BX), Y14

storebias:
	VMOVUPS (SI), Y0
	VMOVUPS 32(SI), Y1
	VMULPS  Y15, Y0, Y0
	VMULPS  Y15, Y1, Y1
	VADDPS  (R8), Y0, Y0
	VADDPS  32(R8), Y1, Y1
	VADDPS  Y13, Y0, Y0
	VADDPS  Y14, Y1, Y1
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	ADDQ    $64, SI
	ADDQ    DX, DI
	ADDQ    R9, R8
	DECQ    CX
	JNZ     storebias
	VZEROUPPER
	RET

storeplain:
	VMOVUPS (SI), Y0
	VMOVUPS 32(SI), Y1
	VMULPS  Y15, Y0, Y0
	VMULPS  Y15, Y1, Y1
	VADDPS  (R8), Y0, Y0
	VADDPS  32(R8), Y1, Y1
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	ADDQ    $64, SI
	ADDQ    DX, DI
	ADDQ    R9, R8
	DECQ    CX
	JNZ     storeplain
	VZEROUPPER
	RET

// func storeTileRowAsm(dst *float32, ldd int64, tile *float32, rows int64, alpha float32, rowBias *float32, relu bool)
// The interior-tile store of addTileF32 with a row bias: for r < rows and
// c < 16, dst[r*ldd+c] = alpha·tile[r*16+c] + rowBias[r], dst not read,
// and with relu every element whose sign bit is set is then cleared
// (vpsrad spreads the sign bit over its lane, vpandn clears the lane).
// The multiply and the add each round on their own, and each sum keeps
// alpha·tile as its first operand, as storeTileAsm does.
TEXT ·storeTileRowAsm(SB), NOSPLIT, $0-49
	MOVQ         dst+0(FP), DI
	MOVQ         ldd+8(FP), DX
	SHLQ         $2, DX
	MOVQ         tile+16(FP), SI
	MOVQ         rows+24(FP), CX
	VBROADCASTSS alpha+32(FP), Y15
	MOVQ         rowBias+40(FP), BX
	MOVBLZX      relu+48(FP), AX
	TESTQ        AX, AX
	JZ           rowplain

rowrelu:
	VBROADCASTSS (BX), Y13
	VMOVUPS      (SI), Y0
	VMOVUPS      32(SI), Y1
	VMULPS       Y15, Y0, Y0
	VMULPS       Y15, Y1, Y1
	VADDPS       Y13, Y0, Y0
	VADDPS       Y13, Y1, Y1
	VPSRAD       $31, Y0, Y2
	VPSRAD       $31, Y1, Y3
	VPANDN       Y0, Y2, Y0
	VPANDN       Y1, Y3, Y1
	VMOVUPS      Y0, (DI)
	VMOVUPS      Y1, 32(DI)
	ADDQ         $4, BX
	ADDQ         $64, SI
	ADDQ         DX, DI
	DECQ         CX
	JNZ          rowrelu
	VZEROUPPER
	RET

rowplain:
	VBROADCASTSS (BX), Y13
	VMOVUPS      (SI), Y0
	VMOVUPS      32(SI), Y1
	VMULPS       Y15, Y0, Y0
	VMULPS       Y15, Y1, Y1
	VADDPS       Y13, Y0, Y0
	VADDPS       Y13, Y1, Y1
	VMOVUPS      Y0, (DI)
	VMOVUPS      Y1, 32(DI)
	ADDQ         $4, BX
	ADDQ         $64, SI
	ADDQ         DX, DI
	DECQ         CX
	JNZ          rowplain
	VZEROUPPER
	RET
