// Package precision implements MMBench's mixed-precision execution
// support: reduced-precision storage formats (IEEE float16 and symmetric
// per-tensor int8) emulated on top of the float32 substrate, and the
// per-stage precision policy that selects a format for each network
// stage (encoder branches, fusion, head).
//
// The emulation model mirrors how reduced precision behaves on real
// accelerators: operands are stored (quantized) in the low-precision
// grid, multiply-accumulate happens in a wide accumulator (float32 here,
// standing in for fp32/int32 accumulators), and results are dequantized
// or re-stored. Float16 conversion uses round-to-nearest-even, the IEEE
// 754 default; int8 quantization is symmetric per-tensor with a
// calibrated scale (maxabs/127). Both conversions are pure element-wise
// functions, so every emulated kernel inherits the engine's
// bitwise-determinism contract unchanged.
package precision

import (
	"fmt"
	"math"
)

// Type is a storage/arithmetic precision for one network stage.
type Type uint8

// Supported precisions. F32 is the zero value: a zero Policy or an
// unset stage runs the reference float32 kernels bit-for-bit.
const (
	F32 Type = iota
	F16
	I8
)

// String returns the flag-syntax name of the precision.
func (t Type) String() string {
	switch t {
	case F16:
		return "f16"
	case I8:
		return "i8"
	default:
		return "f32"
	}
}

// Bits returns the storage width of the precision in bits.
func (t Type) Bits() int {
	switch t {
	case F16:
		return 16
	case I8:
		return 8
	default:
		return 32
	}
}

// MarshalJSON renders the precision as its flag-syntax name, so API
// payloads carry "f16" rather than an enum ordinal.
func (t Type) MarshalJSON() ([]byte, error) {
	return []byte(`"` + t.String() + `"`), nil
}

// UnmarshalJSON accepts the flag-syntax names ParseType understands.
func (t *Type) UnmarshalJSON(b []byte) error {
	s := string(b)
	if len(s) >= 2 && s[0] == '"' && s[len(s)-1] == '"' {
		s = s[1 : len(s)-1]
	}
	v, ok := ParseType(s)
	if !ok && s != "" {
		return fmt.Errorf("precision: unknown precision %q", s)
	}
	*t = v
	return nil
}

// ParseType parses a precision name ("f32", "f16" or "i8").
func ParseType(s string) (Type, bool) {
	switch s {
	case "f32", "fp32", "float32":
		return F32, true
	case "f16", "fp16", "float16", "half":
		return F16, true
	case "i8", "int8":
		return I8, true
	}
	return F32, false
}

// Float16 round-to-nearest-even conversion, via bit manipulation on the
// float32 representation (the classic branch-light routine). Subnormal
// float16 results are produced by one float32 addition against a magic
// constant, which makes the hardware's own RNE rounding do the work:
// for |x| < 2⁻¹⁴ the sum 0.5+|x| lands in the binade whose ulp is 2⁻²⁴
// — exactly the float16 subnormal step — so its low mantissa bits are
// the correctly rounded subnormal payload.
const (
	f16ExpBias = 15
	f32ExpBias = 127
	// f16DenormMagic is 0.5 as float32 bits: (f32ExpBias-1) << 23.
	f16DenormMagic = (f32ExpBias - 1) << 23
	// f16InfBits is the float32 Inf bit pattern (NaN is anything above).
	f16InfBits = 0x7f800000
	// f16NormMinBits is the smallest float32 magnitude whose float16
	// result is normal: 2⁻¹⁴ = (f32ExpBias-14) << 23.
	f16NormMinBits = (f32ExpBias - 14) << 23
	// f16OverflowBits is 2¹⁶ as float32 bits: every magnitude at or
	// above it overflows float16 (values in [65520, 2¹⁶) overflow too,
	// via the rounding carry in the normal path).
	f16OverflowBits = (f32ExpBias + 16) << 23
	// f16RoundInfBits is 65520 as float32 bits, the smallest magnitude
	// the normal path's rounding carry takes to 2¹⁶ (float16's Inf).
	f16RoundInfBits = 0x477ff000
	// f16ExpAdjust rebiases a float32 exponent to float16:
	// (f32ExpBias-f16ExpBias) << 23.
	f16ExpAdjust = (f32ExpBias - f16ExpBias) << 23
)

// F16Bits converts a float32 to IEEE 754 binary16 bits with
// round-to-nearest-even. Overflow produces ±Inf; NaN stays NaN.
func F16Bits(x float32) uint16 {
	b := math.Float32bits(x)
	sign := uint16(b>>16) & 0x8000
	b &= 0x7fffffff

	if b > f16InfBits { // NaN
		return sign | 0x7e00 // quiet NaN
	}
	if b >= f16OverflowBits { // Inf, or finite overflow → Inf
		return sign | 0x7c00
	}
	if b < f16NormMinBits { // subnormal float16 (or zero)
		f := math.Float32frombits(b) + math.Float32frombits(f16DenormMagic)
		return sign | uint16(math.Float32bits(f)-f16DenormMagic)
	}
	// Normal: round the 13 dropped mantissa bits to nearest-even (add
	// 0x0fff plus the kept lsb), then rebias the exponent. A mantissa
	// carry rolls into the exponent, which converts values in
	// [65520, 65536) to +Inf — the correct RNE result.
	b += 0xfff + ((b >> 13) & 1)
	return sign | uint16((b-f16ExpAdjust)>>13)
}

// F16Value converts IEEE 754 binary16 bits to float32 (exact).
func F16Value(bits uint16) float32 {
	sign := uint32(bits&0x8000) << 16
	exp := uint32(bits>>10) & 0x1f
	mant := uint32(bits & 0x3ff)
	switch exp {
	case 0:
		// ±0 or subnormal: mant · 2⁻²⁴, exactly representable in f32.
		f := float32(mant) * (1.0 / (1 << 24))
		return math.Float32frombits(math.Float32bits(f) | sign)
	case 0x1f:
		if mant != 0 {
			return float32(math.NaN())
		}
		return math.Float32frombits(sign | f16InfBits)
	default:
		return math.Float32frombits(sign | (exp+f32ExpBias-f16ExpBias)<<23 | mant<<13)
	}
}

// RoundF16 rounds a float32 through the float16 grid (round-to-nearest-
// even, the storage emulation step of an f16 kernel). It is
// F16Value(F16Bits(x)) computed on the float32 bit pattern, with no
// float16 in between: a normal result rounds away the 13 mantissa bits
// float16 lacks in place, a subnormal one snaps to the 2⁻²⁴ grid with
// F16Bits' 0.5 magic, and NaN is F16Value's quiet NaN.
func RoundF16(x float32) float32 {
	b := math.Float32bits(x)
	sign := b &^ 0x7fffffff
	b &= 0x7fffffff
	switch {
	case b > f16InfBits: // NaN
		return float32(math.NaN())
	case b >= f16OverflowBits: // Inf, or finite overflow → Inf
		return math.Float32frombits(sign | f16InfBits)
	case b < f16NormMinBits: // subnormal float16 (or zero)
		// |x| + 0.5 rounds to the 2⁻²⁴ grid (the ulp of [0.5, 1)), and
		// subtracting 0.5 back is exact.
		f := float32(math.Float32frombits(b)+math.Float32frombits(f16DenormMagic)) - math.Float32frombits(f16DenormMagic)
		return math.Float32frombits(sign | math.Float32bits(f))
	}
	// Normal: F16Bits' nearest-even rounding of the 13 dropped bits. A
	// mantissa carry rolls into the exponent; one that reaches 2¹⁶ is
	// float16's Inf.
	b += 0xfff + ((b >> 13) & 1)
	b &^= 0x1fff
	if b >= f16OverflowBits {
		b = f16InfBits
	}
	return math.Float32frombits(sign | b)
}

// RoundF16Slice stores dst[i] = RoundF16(src[i]). dst and src may alias.
// On AVX-512F hosts with F16C the first len(src)&^15 elements round on
// the conversion unit (roundF16Vec: the hardware's round-to-nearest-even
// is RoundF16 on every input but NaN, whose lanes take RoundF16's NaN),
// and the Go loop below rounds the rest; elsewhere it rounds them all. In
// the loop a magnitude in [2⁻¹⁴, 65520) — a normal float16 result that no
// rounding carry takes to Inf — is rounded inline, behind one unsigned
// range test; so is one below 2⁻¹⁴ (±0 and the float16 subnormals, common
// after a ReLU and in zero-padded panel lanes), as RoundF16 rounds it:
// (|x| + 0.5) − 0.5 with x's sign. Only Inf, NaN and overflow call
// RoundF16, which is too large to inline.
func RoundF16Slice(dst, src []float32) {
	dst = dst[:len(src)]
	v := roundF16Vec(dst, src)
	dst, src = dst[v:], src[v:]
	for i, x := range src {
		b := math.Float32bits(x)
		a := b & 0x7fffffff
		if a-f16NormMinBits < f16RoundInfBits-f16NormMinBits {
			b += 0xfff + ((b >> 13) & 1)
			dst[i] = math.Float32frombits(b &^ 0x1fff)
			continue
		}
		if a < f16NormMinBits {
			f := float32(math.Float32frombits(a)+math.Float32frombits(f16DenormMagic)) - math.Float32frombits(f16DenormMagic)
			dst[i] = math.Float32frombits(b&^0x7fffffff | math.Float32bits(f))
			continue
		}
		dst[i] = RoundF16(x)
	}
}

// F16BitsSlice stores dst[i] = F16Bits(src[i]). On AVX-512F hosts with
// F16C the first len(src)&^15 elements convert on the conversion unit
// (f16BitsVec), as RoundF16Slice's do. In the Go loop a magnitude in
// [2⁻¹⁴, 2¹⁶) — F16Bits' normal path, whose rounding carry reaches Inf's
// bits by itself — is converted inline, behind one unsigned range test,
// and so is one below 2⁻¹⁴ (±0 and the float16 subnormals) by F16Bits'
// 0.5 magic; only Inf, NaN and overflow call F16Bits. dst may alias src
// from its first byte, as a uint16 view of src's memory: element i is
// read before its two bytes are written, and they land in element i/2,
// which is already read.
func F16BitsSlice(dst []uint16, src []float32) {
	dst = dst[:len(src)]
	v := f16BitsVec(dst, src)
	dst, src = dst[v:], src[v:]
	for i, x := range src {
		b := math.Float32bits(x)
		a := b & 0x7fffffff
		if a-f16NormMinBits < f16OverflowBits-f16NormMinBits {
			dst[i] = uint16(b>>16)&0x8000 | uint16((a+0xfff+((a>>13)&1)-f16ExpAdjust)>>13)
			continue
		}
		if a < f16NormMinBits {
			f := math.Float32frombits(a) + math.Float32frombits(f16DenormMagic)
			dst[i] = uint16(b>>16)&0x8000 | uint16(math.Float32bits(f)-f16DenormMagic)
			continue
		}
		dst[i] = F16Bits(x)
	}
}

// MaxAbs returns the largest magnitude in xs (0 for an empty slice).
// NaNs are ignored; an Inf saturates the calibration. The reduction is
// order-independent, so it may be computed serially or in chunks.
// Magnitudes are compared as sign-cleared IEEE bit patterns, which order
// identically to the values for everything up to Inf (NaN payloads sit
// above the Inf pattern and are skipped).
// Four independent running maxima break the compare's loop-carried
// dependency; calibration is on the critical path of every packed int8
// GEMM, so the scan needs to run near memory speed.
func MaxAbs(xs []float32) float32 {
	var m0, m1, m2, m3 uint32
	i := 0
	for ; i+4 <= len(xs); i += 4 {
		b0 := math.Float32bits(xs[i]) &^ (1 << 31)
		b1 := math.Float32bits(xs[i+1]) &^ (1 << 31)
		b2 := math.Float32bits(xs[i+2]) &^ (1 << 31)
		b3 := math.Float32bits(xs[i+3]) &^ (1 << 31)
		if b0 > m0 && b0 <= f16InfBits {
			m0 = b0
		}
		if b1 > m1 && b1 <= f16InfBits {
			m1 = b1
		}
		if b2 > m2 && b2 <= f16InfBits {
			m2 = b2
		}
		if b3 > m3 && b3 <= f16InfBits {
			m3 = b3
		}
	}
	for ; i < len(xs); i++ {
		b := math.Float32bits(xs[i]) &^ (1 << 31)
		if b > m0 && b <= f16InfBits {
			m0 = b
		}
	}
	if m1 > m0 {
		m0 = m1
	}
	if m2 > m0 {
		m0 = m2
	}
	if m3 > m0 {
		m0 = m3
	}
	return math.Float32frombits(m0)
}

// I8Scale returns the symmetric per-tensor quantization scale for a
// tensor whose largest magnitude is maxAbs: the step between adjacent
// int8 levels so that ±maxAbs maps to ±127. A zero (or non-finite)
// maxAbs returns 1 so quantizing a zero tensor is a no-op.
func I8Scale(maxAbs float32) float32 {
	if maxAbs == 0 || math.IsInf(float64(maxAbs), 0) || math.IsNaN(float64(maxAbs)) {
		return 1
	}
	return maxAbs / 127
}

// i8RoundMagic is 1.5·2²³: adding then subtracting it forces a float32
// through the binade whose ulp is 1, so the hardware's round-to-nearest-
// even produces the RNE integer of any |v| ≤ 2²² in two adds — no
// float64 round call in the quantization inner loop.
const i8RoundMagic = float32(3 << 22)

// I8Level returns the int8 quantization level of one value on the grid
// QuantizeI8 defines: clamp(rne(x·inv), -127, 127) with inv = 1/scale.
// It is the single definition of the int8 grid; the packed GEMM core
// quantizes panels through it so packed and emulated kernels agree on
// every level. Clamping before the rounding add keeps the magic-constant
// trick exact for any input (a clamped |v| is ≤ 127, and round-then-
// clamp equals clamp-then-round at the boundary). NaN maps to level 0.
func I8Level(x, inv float32) int8 {
	v := x * inv
	if v > 127 {
		v = 127
	} else if v < -127 {
		v = -127
	} else if v != v {
		return 0
	}
	return int8((v + i8RoundMagic) - i8RoundMagic)
}

// QuantizeI8 stores dst[i] = clamp(rne(src[i]/scale), -127, 127): the
// integer quantization level of each element, kept in float32 so the
// engine's f32 kernels can accumulate integer products exactly (products
// are ≤ 127·127 and float32 holds integers exactly up to 2²⁴ — the
// emulated analogue of an int8×int8→int32 MAC). dst and src may alias.
// Dequantize by multiplying accumulated results with the scales.
func QuantizeI8(dst, src []float32, scale float32) {
	inv := 1 / scale
	for i, x := range src {
		dst[i] = float32(I8Level(x, inv))
	}
}

// DequantizeI8 stores dst[i] = src[i]·scale, mapping quantization levels
// back to real values. dst and src may alias.
func DequantizeI8(dst, src []float32, scale float32) {
	for i, x := range src {
		dst[i] = x * scale
	}
}
