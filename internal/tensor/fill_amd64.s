//go:build !noasm

// AVX-512 bodies of RNG.Uniform, RNG.Normal and stream.refill, with the
// bits of the Go loops in rng.go and of rand.Rand. The fills take sixteen
// words per step, each repeating the compiled Go element code operation
// for operation and operand for operand (the Go compiler fuses no
// multiply-add on amd64, so neither do these; the one fused arithmetic
// here is normalAsm's exp polynomial, whose value only ever decides a
// comparison its error bound covers). uniformAsm stops at the first word
// that leaves its fast path, stores only the lanes before it and returns
// its index; normalAsm also settles NormFloat64's wedges and counts words
// and elements apart. The Go loop reads a word a body stopped at again
// and hands it to rand.Rand.
//
// Register plan (uniformAsm; normalAsm's own is at it):
//
//	Z0, Z1    the step's words, then its values
//	Z20, Z21  lo and hi−lo
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

// The wedge's constants: the int32 1 that steps a float32 to the next,
// then float64s.
DATA wedgeConsts<>+0(SB)/4, $1
DATA wedgeConsts<>+4(SB)/4, $0
DATA wedgeConsts<>+8(SB)/8, $0x3ff0000000000000   // 1 = 1/0! = 1/1!
DATA wedgeConsts<>+16(SB)/8, $0x3fe0000000000000  // .5
DATA wedgeConsts<>+24(SB)/8, $0xbfe0000000000000  // −.5
DATA wedgeConsts<>+32(SB)/8, $0x3ff71547652b82fe  // log2 e
DATA wedgeConsts<>+40(SB)/8, $0x3fe62e42fee00000  // ln 2, high part
DATA wedgeConsts<>+48(SB)/8, $0x3feffffff8000000  // 1 − δ, δ = 2⁻²⁶
DATA wedgeConsts<>+56(SB)/8, $0x3ff0000004000000  // 1 + δ
DATA wedgeConsts<>+64(SB)/8, $0x3dea39ef35793c76  // ln 2, low part
DATA wedgeConsts<>+72(SB)/8, $0x3fe0000000000000  // 1/2!
DATA wedgeConsts<>+80(SB)/8, $0x3fc5555555555555  // 1/3!
DATA wedgeConsts<>+88(SB)/8, $0x3fa5555555555555  // 1/4!
DATA wedgeConsts<>+96(SB)/8, $0x3f81111111111111  // 1/5!
DATA wedgeConsts<>+104(SB)/8, $0x3f56c16c16c16c17 // 1/6!
DATA wedgeConsts<>+112(SB)/8, $0x3f2a01a01a01a01a // 1/7!
DATA wedgeConsts<>+120(SB)/8, $0x3efa01a01a01a01a // 1/8!
DATA wedgeConsts<>+128(SB)/8, $0x4338000000000000 // 1.5·2⁵²
GLOBL wedgeConsts<>(SB), RODATA|NOPTR, $136

// laneIndex is 0, 1, …, 15, the lanes of a step.
DATA laneIndex<>+0(SB)/8, $0x0000000100000000
DATA laneIndex<>+8(SB)/8, $0x0000000300000002
DATA laneIndex<>+16(SB)/8, $0x0000000500000004
DATA laneIndex<>+24(SB)/8, $0x0000000700000006
DATA laneIndex<>+32(SB)/8, $0x0000000900000008
DATA laneIndex<>+40(SB)/8, $0x0000000b0000000a
DATA laneIndex<>+48(SB)/8, $0x0000000d0000000c
DATA laneIndex<>+56(SB)/8, $0x0000000f0000000e
GLOBL laneIndex<>(SB), RODATA|NOPTR, $64

// wedgeExp sets e to exp(t), t = −.5·x·x rounded as Go rounds it (the
// halving is exact), for eight lanes of x, clobbering r, k, s and o:
// k = round(t·log2 e) by the 1.5·2⁵² shifter, r = t − k·ln 2 in two fused
// steps (|r| ≤ ln 2/2), the Taylor polynomial of degree 8 in r as its
// even and odd halves in s = r², each by Horner's rule with fused
// multiply-adds, then e + r·o scaled by 2ᵏ. For the t a wedge meets
// (−7 < t ≤ 0) e's relative error is below 2⁻³¹ and math.Exp's below
// 2⁻⁵¹, so both lie within δ/32 of exp(t), δ = 2⁻²⁶: e·(1−δ) > mid
// proves math.Exp(t) > mid, and e·(1+δ) < mid proves math.Exp(t) < mid.
#define wedgeExp(x, r, k, s, e, o) \
	VMULPD            x, x, r;                       \
	VMULPD.BCST       wedgeConsts<>+24(SB), r, r;    \
	VBROADCASTSD      wedgeConsts<>+128(SB), k;      \
	VFMADD231PD.BCST  wedgeConsts<>+32(SB), r, k;    \
	VSUBPD.BCST       wedgeConsts<>+128(SB), k, k;   \
	VFNMADD231PD.BCST wedgeConsts<>+40(SB), k, r;    \
	VFNMADD231PD.BCST wedgeConsts<>+64(SB), k, r;    \
	VMULPD            r, r, s;                       \
	VBROADCASTSD      wedgeConsts<>+120(SB), e;      \
	VBROADCASTSD      wedgeConsts<>+112(SB), o;      \
	VFMADD213PD.BCST  wedgeConsts<>+104(SB), s, e;   \
	VFMADD213PD.BCST  wedgeConsts<>+96(SB), s, o;    \
	VFMADD213PD.BCST  wedgeConsts<>+88(SB), s, e;    \
	VFMADD213PD.BCST  wedgeConsts<>+80(SB), s, o;    \
	VFMADD213PD.BCST  wedgeConsts<>+72(SB), s, e;    \
	VFMADD213PD.BCST  wedgeConsts<>+8(SB), s, o;     \
	VFMADD213PD.BCST  wedgeConsts<>+8(SB), s, e;     \
	VFMADD231PD       o, r, e;                       \
	VSCALEFPD         k, e, e

// normalValues computes, from the step's words in Z0 and Z1, j, i = j & 0x7F
// (Z2), the lanes off the fast path (K1), x in float64 (Z0, lanes 0–7;
// Z6, lanes 8–15) and the lanes' values (Z8).
#define normalValues \
	VPSRLQ        $31, Z0, Z0;         \
	VPSRLQ        $31, Z1, Z1;         \
	VPMOVQD       Z0, Y0;              \
	VPMOVQD       Z1, Y1;              \
	VINSERTI64X4  $1, Y1, Z0, Z0;      \
	VPANDD        Z22, Z0, Z2;         \
	KXNORW        K2, K2, K2;          \
	VPGATHERDD    (R9)(Z2*4), K2, Z3;  \
	KXNORW        K3, K3, K3;          \
	VGATHERDPS    (R10)(Z2*4), K3, Z4; \
	VPABSD        Z0, Z5;              \
	VPCMPUD       $5, Z3, Z5, K1;      \
	VEXTRACTI64X4 $1, Z0, Y6;          \
	VEXTRACTF64X4 $1, Z4, Y7;          \
	VCVTDQ2PD     Y0, Z0;              \
	VCVTPS2PD     Y4, Z4;              \
	VCVTDQ2PD     Y6, Z6;              \
	VCVTPS2PD     Y7, Z7;              \
	VMULPD        Z4, Z0, Z0;          \
	VMULPD        Z7, Z6, Z6;          \
	VCVTPD2PS     Z0, Y8;              \
	VCVTPD2PS     Z6, Y9;              \
	VINSERTF64X4  $1, Y9, Z8, Z8;      \
	VMULPS        Z21, Z8, Z8;         \
	VADDPS        Z20, Z8, Z8

// storeDraws packs Z8's lanes named by R12 to (DI)(BX*4), storing only
// them, and adds their count to BX; clobbers R12, R13 and K1.
#define storeDraws \
	KMOVW       R12, K1;            \
	VCOMPRESSPS Z8, K1, Z9;         \
	POPCNTL     R12, R12;           \
	XORL        R13, R13;           \
	BTSL        R12, R13;           \
	DECL        R13;                \
	KMOVW       R13, K1;            \
	VMOVUPS     Z9, K1, (DI)(BX*4); \
	ADDQ        R12, BX

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

// func normalAsm(dst *float32, ndst int64, src *uint64, nsrc int64, mean, std float32) (words, stored int64)
// A step reads the sixteen words at p and, for the wedges among them,
// the sixteen at p+1. For each word j = int32(w >> 31), i = j & 0x7F,
// x = float64(j)·float64(wn[i]) and the lane's value is mean +
// std·float32(x). |j| < kn[i] (unsigned, so MinInt32 leaves) is the fast
// path. Otherwise, for i ≠ 0, the word is a wedge: the next word is its
// uniform u = Float64 and is drawn no further, and NormFloat64's test
// L = fn[i] + float32(u)·(fn[i−1] − fn[i]) < float32(exp(−.5·x·x)) is
// settled here (see wedgeExp) or left undecided. The draws and the
// uniforms follow from the wedges in order (normalChain); a wedge in lane
// 15 takes word p+16, and the next step starts with it consumed (R11). A
// step stops at the first draw it cannot take: a base-strip word (i = 0),
// an undecided wedge, a wedge whose u is 1 or whose uniform is past nsrc,
// and a draw past the lanes given, min(words left, elements left), when
// fewer than sixteen are. It stores the values of the fast draws and the
// accepted wedges before the stop with vcompressps, never past ndst, and
// moves p past the words they and the rejected wedges consumed. It
// returns the words consumed and the elements stored.
//
// Register plan:
//
//	Z0, Z1    the step's words; then x in float64, lanes 0–7 (Z0) and
//	          8–15 (Z6)
//	Z2        i          Z8  the step's values
//	Z20, Z21  mean, std  Z22 the strip mask
//	K1        lanes off the fast path     K5  wedge words
//	K3        wedge draws  K4  draws it stops at  K7  draws it stores
//	K0        lanes past the words or elements given (a short step)
//	DI=dst  R8=ndst  SI=src  CX=nsrc  AX=p  BX=elements stored
//	R9, R10 = kn, wn  R11 = 1 if word p is the last step's uniform
//	R13       bit k set if word p+k is a uniform (k ≤ 16)
TEXT ·normalAsm(SB), NOSPLIT, $0-56
	MOVQ         dst+0(FP), DI
	MOVQ         ndst+8(FP), R8
	MOVQ         src+16(FP), SI
	MOVQ         nsrc+24(FP), CX
	VBROADCASTSS mean+32(FP), Z20
	VBROADCASTSS std+36(FP), Z21
	VPBROADCASTD fillConsts<>+20(SB), Z22
	LEAQ         ·kn(SB), R9
	LEAQ         ·wn(SB), R10
	XORQ         AX, AX
	XORQ         BX, BX
	XORL         R11, R11

normalLoop:
	MOVQ          CX, DX
	SUBQ          AX, DX
	MOVQ          R8, R12
	SUBQ          BX, R12
	CMPQ          R12, DX
	CMOVQLT       R12, DX  // lanes given: min(words left, elements left)
	CMPQ          DX, $16
	JLT           normalPart
	VMOVDQU64     (SI)(AX*8), Z0
	VMOVDQU64     64(SI)(AX*8), Z1
	normalValues
	KORTESTW      K1, K1
	JNZ           normalSlow
	TESTL         R11, R11
	JNZ           normalSlow
	VMOVUPS       Z8, (DI)(BX*4)
	ADDQ          $16, AX
	ADDQ          $16, BX
	JMP           normalLoop

	// Fewer than sixteen lanes given: the lanes past them read zero words
	// and a draw there stops the step (K0).
normalPart:
	TESTQ       DX, DX
	JLE         normalDone
	XORL        R12, R12
	BTSL        DX, R12
	DECL        R12
	KMOVW       R12, K2
	KNOTW       K2, K0
	KSHIFTRW    $8, K2, K3
	VMOVDQU64.Z (SI)(AX*8), K2, Z0
	VMOVDQU64.Z 64(SI)(AX*8), K3, Z1
	normalValues
	JMP         normalWedges

normalSlow:
	KXORW K0, K0, K0

normalWedges:
	VPTESTMD Z22, Z2, K1, K5 // wedge words (i ≠ 0), drawn or not

	// The wedge test, for the first eight wedge words packed into eight
	// lanes (the rest read as undecided); the draws are sorted out below.
	// A wedge word's uniform is the next word, if given (K6).
	MOVQ          CX, DX
	SUBQ          AX, DX
	DECQ          DX
	MOVL          $0xFFFF, R12
	CMPQ          DX, $16
	JGE           normalUniforms
	XORL          R12, R12
	BTSL          DX, R12
	DECL          R12

normalUniforms:
	KMOVW         R12, K6
	KSHIFTRW      $8, K6, K2
	VMOVDQU64.Z   8(SI)(AX*8), K6, Z10
	VMOVDQU64.Z   72(SI)(AX*8), K2, Z11
	VMOVDQU32     laneIndex<>(SB), Z9
	VPCOMPRESSD.Z Z9, K5, Z9
	VPMOVZXDQ     Y9, Z9                // the packed lanes, as qword indices
	VMOVDQA64     Z9, Z13
	VPERMI2Q      Z11, Z10, Z13         // their uniforms' words
	VPERMI2PD     Z6, Z0, Z9            // their x
	VPBROADCASTD  wedgeConsts<>+0(SB), Z10
	VPCOMPRESSD   Z2, K5, Z10           // their i, and 1 past the last
	VPANDQ.BCST   fillConsts<>+0(SB), Z13, Z13
	VCVTQQ2PD     Z13, Z13
	VMULPD.BCST   fillConsts<>+8(SB), Z13, Z13  // u
	VCMPPD.BCST   $0, wedgeConsts<>+8(SB), Z13, K2  // u = 1: rand.Rand redraws it
	VCVTPD2PS     Z13, Y13                          // float32(u)

	// L, rounded in Go's order, and mid = (L + L⁺)/2 in float64, L⁺ the
	// next float32 up.
	LEAQ          ·fn(SB), R12
	KXNORB        K3, K3, K3
	VGATHERDPS    (R12)(Y10*4), K3, Y12    // fn[i]
	KXNORB        K3, K3, K3
	VGATHERDPS    -4(R12)(Y10*4), K3, Y14  // fn[i−1]
	VSUBPS        Y12, Y14, Y14
	VMULPS        Y14, Y13, Y13
	VADDPS        Y13, Y12, Y12            // L
	VPADDD.BCST   wedgeConsts<>+0(SB), Y12, Y14
	VCVTPS2PD     Y12, Z12
	VCVTPS2PD     Y14, Z14
	VADDPD        Z14, Z12, Z12
	VMULPD.BCST   wedgeConsts<>+16(SB), Z12, Z12  // mid

	wedgeExp(Z9, Z16, Z17, Z18, Z24, Z25)
	VMULPD.BCST wedgeConsts<>+48(SB), Z24, Z16  // e·(1−δ)
	VMULPD.BCST wedgeConsts<>+56(SB), Z24, Z17  // e·(1+δ)
	VCMPPD      $0x1e, Z12, Z16, K3  // e·(1−δ) > mid: accept
	VCMPPD      $0x11, Z12, Z17, K4  // e·(1+δ) < mid: reject
	KORB        K3, K4, K4
	KNOTB       K4, K4
	KORB        K2, K4, K4           // unsettled: undecided, or u = 1
	KMOVB       K3, DX
	KMOVB       K4, R13
	ORL         $0xFF00, R13
	KMOVW       K5, R12
	PDEPL       R12, DX, DX          // back to the wedge words' lanes
	PDEPL       R12, R13, R13
	KMOVW       DX, K7               // accepted
	KMOVW       R13, K4              // unsettled

	// The draws: a wedge word that is drawn consumes the next as its
	// uniform. R13 gets bit k set if word p+k is a uniform (k ≤ 16).
	KMOVW     K5, R12
	LEAL      (R11)(R12*2), R13
	TESTL     R12, R13
	JZ        normalDraws     // no wedge word is a uniform: each is drawn
	MOVL      R11, R13
	MOVL      R12, DX

normalChain:
	BSFL DX, R12 // the next wedge word, in order
	JZ   normalDraws
	BTRL R12, DX
	BTL  R12, R13
	JCS  normalChain // consumed as a uniform: not drawn
	INCL R12
	BTSL R12, R13    // drawn: the word after it is its uniform
	JMP  normalChain

normalDraws:
	MOVL   R13, DX
	NOTL   DX
	KMOVW  DX, K2      // draws
	KANDW  K2, K5, K3  // wedge draws
	KANDW  K3, K4, K4  // stops: unsettled wedge draws,
	KANDNW K3, K6, K6
	KORW   K6, K4, K4  // wedge draws whose uniform was not given,
	KANDNW K1, K5, K6
	KANDW  K2, K6, K6
	KORW   K6, K4, K4  // base-strip draws,
	KANDW  K2, K0, K6
	KORW   K6, K4, K4  // draws past the lanes given
	KANDW  K3, K7, K7  // accepted wedge draws
	KANDNW K2, K1, K6  // fast draws
	KORW   K6, K7, K7  // the draws stored
	KMOVW    K4, DX
	KMOVW    K7, R12
	TESTL    DX, DX
	JNZ      normalStop
	SHRL     $16, R13
	MOVL     R13, R11  // a uniform past the step
	ADDQ     $16, AX
	storeDraws
	JMP      normalLoop

normalStop:
	BSFL     DX, DX
	ADDQ     DX, AX
	XORL     R13, R13
	BTSL     DX, R13
	DECL     R13
	ANDL     R13, R12  // the draws before the stop
	storeDraws
	XORL     R11, R11

normalDone:
	ADDQ R11, AX
	MOVQ AX, words+40(FP)
	MOVQ BX, stored+48(FP)
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
