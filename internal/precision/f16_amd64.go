//go:build amd64 && !noasm

package precision

import "mmbench/internal/hostcpu"

// vecF16 selects the 16-lane bodies of RoundF16Slice and F16BitsSlice
// (f16_amd64.s) on AVX-512F hosts with F16C. Tests clear it to run the
// Go loops alone.
var vecF16 = hostcpu.AVX512F && hostcpu.F16C

// roundF16Asm stores dst[i] = RoundF16(src[i]) for i < n, n a positive
// multiple of 16: vcvtps2ph with round-to-nearest-even and vcvtph2ps
// back, NaN lanes replaced by RoundF16's NaN. src and dst are either the
// same or disjoint.
//
//go:noescape
func roundF16Asm(dst, src *float32, n int64)

// f16BitsAsm stores dst[i] = F16Bits(src[i]) for i < n, n a positive
// multiple of 16: vcvtps2ph with round-to-nearest-even, NaN lanes first
// replaced by the quiet NaN of their sign, which converts to F16Bits'
// NaN. dst may alias src from its first byte (each step reads its 16
// floats before storing their 32 bytes, which land on floats already
// read).
//
//go:noescape
func f16BitsAsm(dst *uint16, src *float32, n int64)

// roundF16Vec runs roundF16Asm over the first len(src)&^15 elements when
// the vector bodies are selected and returns how many it stored; the Go
// loop goes on from there. len(dst) must be at least len(src).
func roundF16Vec(dst, src []float32) int {
	n := len(src) &^ 15
	if !vecF16 || n == 0 {
		return 0
	}
	_ = dst[n-1]
	roundF16Asm(&dst[0], &src[0], int64(n))
	return n
}

// f16BitsVec is roundF16Vec for f16BitsAsm.
func f16BitsVec(dst []uint16, src []float32) int {
	n := len(src) &^ 15
	if !vecF16 || n == 0 {
		return 0
	}
	_ = dst[n-1]
	f16BitsAsm(&dst[0], &src[0], int64(n))
	return n
}
