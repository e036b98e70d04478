// The vector exponential shared by the AVX-512F bodies of
// activation_amd64.s and attention_amd64.s: expf32x16 is expf32, sixteen
// lanes at a time, with its bits. It repeats the compiled scalar code
// instruction for instruction — the same float32 constants, the same
// operations in the same order, and the same operand order, which decides
// which NaN payload survives when both operands are NaN (an SSE "OP b, a"
// is "VOP b, a, dst" here):
//
//	x < expMin → +0            the branch, as a zeroing mask on the last multiply
//	kf = x·log2e64 + magic − magic
//	k  = int32(kf)             VCVTTPS2DQ (CVTTSS2SL's truncation and 0x80000000)
//	r  = x − C1·kf − kf·C2
//	p  = (1 + r) + r·(0.5·r)
//	e  = scale·p, scale = exp2Bits[k&63] + (k>>6)<<23
//
// The 64-entry table is read with two VPERMI2D over its halves and a
// select on bit 5 of k. Registers:
//
//	Z1        x in, e^x out
//	Z5..Z8    working values
//	Z16       sign bit            Z17  87
//	Z18       expMin              Z19  64·log2(e)
//	Z20       1.5·2²³             Z21  C1      Z22  C2
//	Z23       1.0                 Z24  0.5
//	Z27       32 (bit 5 of a table index)
//	Z28..Z31  exp2Bits[0:16], [16:32], [32:48], [48:64]
//	K1        lanes not flushed   K2   lanes reading the table's upper half
//
// Z0, Z2..Z4, Z9..Z15, Z25, Z26 and K3..K7 are the including function's.

DATA expConsts<>+0(SB)/4, $0x80000000  // sign bit
DATA expConsts<>+4(SB)/4, $0x42ae0000  // 87
DATA expConsts<>+8(SB)/4, $0xc2aeac4f  // expMin
DATA expConsts<>+12(SB)/4, $0x42b8aa3b // expLog2e64
DATA expConsts<>+16(SB)/4, $0x4b400000 // expMagic
DATA expConsts<>+20(SB)/4, $0x3c318000 // expC1
DATA expConsts<>+24(SB)/4, $0xb65e8083 // expC2
DATA expConsts<>+28(SB)/4, $0x3f800000 // 1
DATA expConsts<>+32(SB)/4, $0x3f000000 // 0.5
DATA expConsts<>+36(SB)/4, $0x00000020 // 32
GLOBL expConsts<>(SB), RODATA|NOPTR, $40

// loadExp fills Z16..Z24, Z27 and the table registers.
#define loadExp \
	VPBROADCASTD expConsts<>+0(SB), Z16; \
	VBROADCASTSS expConsts<>+4(SB), Z17; \
	VBROADCASTSS expConsts<>+8(SB), Z18; \
	VBROADCASTSS expConsts<>+12(SB), Z19; \
	VBROADCASTSS expConsts<>+16(SB), Z20; \
	VBROADCASTSS expConsts<>+20(SB), Z21; \
	VBROADCASTSS expConsts<>+24(SB), Z22; \
	VBROADCASTSS expConsts<>+28(SB), Z23; \
	VBROADCASTSS expConsts<>+32(SB), Z24; \
	VPBROADCASTD expConsts<>+36(SB), Z27; \
	VMOVDQU32    ·exp2Bits+0(SB), Z28; \
	VMOVDQU32    ·exp2Bits+64(SB), Z29; \
	VMOVDQU32    ·exp2Bits+128(SB), Z30; \
	VMOVDQU32    ·exp2Bits+192(SB), Z31

// expf32x16 replaces Z1 with expf32(Z1); clobbers Z5..Z8, K1, K2.
#define expf32x16 \
	VCMPPS       $5, Z18, Z1, K1; \
	VMULPS       Z1, Z19, Z5; \
	VADDPS       Z20, Z5, Z5; \
	VSUBPS       Z20, Z5, Z5; \
	VCVTTPS2DQ   Z5, Z6; \
	VMULPS       Z5, Z21, Z7; \
	VSUBPS       Z7, Z1, Z1; \
	VMULPS       Z22, Z5, Z5; \
	VSUBPS       Z5, Z1, Z1; \
	VADDPS       Z1, Z23, Z5; \
	VMULPS       Z1, Z24, Z7; \
	VMULPS       Z7, Z1, Z1; \
	VADDPS       Z1, Z5, Z5; \
	VMOVDQA32    Z6, Z7; \
	VPERMI2D     Z29, Z28, Z7; \
	VMOVDQA32    Z6, Z8; \
	VPERMI2D     Z31, Z30, Z8; \
	VPTESTMD     Z27, Z6, K2; \
	VMOVDQA32    Z8, K2, Z7; \
	VPSRAD       $6, Z6, Z6; \
	VPSLLD       $23, Z6, Z6; \
	VPADDD       Z7, Z6, Z7; \
	VMULPS.Z     Z5, Z7, K1, Z1
