package precision

import (
	"math"
	"math/rand"
	"testing"
)

// refF16Bits is a slow float64-based reference for round-to-nearest-even
// float16 conversion, used to cross-check the bit-twiddled fast path.
func refF16Bits(x float32) uint16 {
	f := float64(x)
	sign := uint16(0)
	if math.Signbit(f) {
		sign = 0x8000
		f = -f
	}
	switch {
	case math.IsNaN(f):
		return sign | 0x7e00
	case math.IsInf(f, 0), f >= 65520: // rounds to Inf
		return sign | 0x7c00
	case f < math.Ldexp(1, -24)/2:
		return sign // underflows to zero (half of min subnormal ties to even = 0)
	}
	// Scale into the subnormal or normal grid and round with the
	// float64 RNE of math.RoundToEven (exact: f64 holds all candidates).
	if f < math.Ldexp(1, -14) {
		q := math.RoundToEven(f * math.Ldexp(1, 24)) // subnormal step 2^-24
		if q >= 1024 {                               // rolled into the normal range
			return sign | 0x0400
		}
		return sign | uint16(q)
	}
	exp := math.Ilogb(f)
	mant := math.RoundToEven(math.Ldexp(f, 10-exp)) // in [1024, 2048]
	if mant >= 2048 {
		mant = 1024
		exp++
	}
	if exp > 15 {
		return sign | 0x7c00
	}
	return sign | uint16(exp+15)<<10 | uint16(mant-1024)
}

func TestF16BitsMatchesReference(t *testing.T) {
	cases := []float32{
		0, float32(math.Copysign(0, -1)), 1, -1, 0.5, 2, 65504, -65504,
		65519.996, 65520, 65536, 1e38, -1e38,
		6.103515625e-05,       // min normal f16
		6.097555160522461e-05, // just below min normal
		5.960464477539063e-08, // min subnormal f16
		2.980232238769531e-08, // half of min subnormal: ties to even → 0
		8.940696716308594e-08, // 1.5 subnormal steps: ties to even → 2 steps
		1.0009765625,          // 1 + one f16 ulp
		1.00048828125,         // 1 + half an f16 ulp: ties to even → 1.0
		1.0014648438,          // 1 + 1.5 f16 ulps: ties to even → 1 + 2 ulps
		3.14159265, -2.71828, 1e-7, -1e-7, 1e-3, 123.456,
	}
	for _, x := range cases {
		if got, want := F16Bits(x), refF16Bits(x); got != want {
			t.Errorf("F16Bits(%g) = %#04x, want %#04x", x, got, want)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200000; i++ {
		x := math.Float32frombits(rng.Uint32())
		if math.IsNaN(float64(x)) {
			continue // NaN payloads are implementation detail; kind checked below
		}
		if got, want := F16Bits(x), refF16Bits(x); got != want {
			t.Fatalf("F16Bits(%g [%#08x]) = %#04x, want %#04x",
				x, math.Float32bits(x), got, want)
		}
	}
}

func TestF16SpecialValues(t *testing.T) {
	if b := F16Bits(float32(math.NaN())); b&0x7c00 != 0x7c00 || b&0x3ff == 0 {
		t.Errorf("NaN converts to %#04x, not a float16 NaN", b)
	}
	if !math.IsNaN(float64(F16Value(0x7e00))) {
		t.Error("F16Value(NaN bits) is not NaN")
	}
	if v := F16Value(0x7c00); !math.IsInf(float64(v), 1) {
		t.Errorf("F16Value(+Inf bits) = %g", v)
	}
	if v := F16Value(0xfc00); !math.IsInf(float64(v), -1) {
		t.Errorf("F16Value(-Inf bits) = %g", v)
	}
	if v := F16Value(0x8000); v != 0 || !math.Signbit(float64(v)) {
		t.Errorf("F16Value(-0 bits) = %g (signbit %v)", v, math.Signbit(float64(v)))
	}
}

// Every float16 value round-trips exactly through float32.
func TestF16RoundTripExhaustive(t *testing.T) {
	for b := 0; b < 1<<16; b++ {
		bits := uint16(b)
		v := F16Value(bits)
		if math.IsNaN(float64(v)) {
			continue
		}
		if got := F16Bits(v); got != bits {
			t.Fatalf("round trip %#04x -> %g -> %#04x", bits, v, got)
		}
		// Idempotence: rounding an already-on-grid value changes nothing.
		if r := RoundF16(v); r != v {
			t.Fatalf("RoundF16(%g) = %g, not idempotent", v, r)
		}
	}
}

func TestRoundF16ErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100000; i++ {
		x := (rng.Float32()*2 - 1) * 100
		r := RoundF16(x)
		// Relative error ≤ 2^-11 for values in the normal f16 range.
		if e := math.Abs(float64(r-x)) / math.Max(math.Abs(float64(x)), 1e-10); e > 1.0/2048 {
			t.Fatalf("RoundF16(%g) = %g, relative error %g > 2^-11", x, r, e)
		}
	}
}

func TestI8QuantizeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	src := make([]float32, 4096)
	for i := range src {
		src[i] = (rng.Float32()*2 - 1) * 5
	}
	m := MaxAbs(src)
	scale := I8Scale(m)
	q := make([]float32, len(src))
	QuantizeI8(q, src, scale)
	deq := make([]float32, len(src))
	DequantizeI8(deq, q, scale)
	for i := range src {
		if q[i] != float32(math.Trunc(float64(q[i]))) || q[i] > 127 || q[i] < -127 {
			t.Fatalf("q[%d] = %g is not an int8 level", i, q[i])
		}
		// Round-trip error of symmetric quantization is at most half a
		// step (plus float32 rounding slack in the divide/multiply).
		if e := math.Abs(float64(deq[i] - src[i])); e > float64(scale)*(0.5+1e-4) {
			t.Fatalf("dequant error %g at %d exceeds scale/2 = %g", e, i, scale/2)
		}
	}
	// The extremes must land on ±127 exactly.
	idx := 0
	for i, x := range src {
		if x == m || x == -m {
			idx = i
		}
	}
	if a := float32(math.Abs(float64(q[idx]))); a != 127 {
		t.Fatalf("max-magnitude element quantized to %g, want ±127", q[idx])
	}
}

func TestI8ScaleEdgeCases(t *testing.T) {
	if s := I8Scale(0); s != 1 {
		t.Errorf("I8Scale(0) = %g, want 1", s)
	}
	if s := I8Scale(float32(math.Inf(1))); s != 1 {
		t.Errorf("I8Scale(+Inf) = %g, want 1", s)
	}
	if s := I8Scale(127); s != 1 {
		t.Errorf("I8Scale(127) = %g, want 1", s)
	}
	// In-place quantization is allowed.
	xs := []float32{-1, -0.5, 0, 0.5, 1}
	QuantizeI8(xs, xs, I8Scale(1))
	if xs[4] != 127 || xs[0] != -127 || xs[2] != 0 {
		t.Errorf("in-place quantize gave %v", xs)
	}
}

func TestMaxAbs(t *testing.T) {
	if m := MaxAbs(nil); m != 0 {
		t.Errorf("MaxAbs(nil) = %g", m)
	}
	if m := MaxAbs([]float32{1, -3, 2}); m != 3 {
		t.Errorf("MaxAbs = %g, want 3", m)
	}
	if m := MaxAbs([]float32{float32(math.NaN()), -2}); m != 2 {
		t.Errorf("MaxAbs with NaN = %g, want 2", m)
	}
}

func TestTypeParseAndString(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Type
		ok   bool
	}{
		{"f32", F32, true}, {"f16", F16, true}, {"i8", I8, true},
		{"half", F16, true}, {"int8", I8, true}, {"fp16", F16, true},
		{"f64", F32, false}, {"", F32, false},
	} {
		got, ok := ParseType(tc.in)
		if got != tc.want || ok != tc.ok {
			t.Errorf("ParseType(%q) = %v,%v want %v,%v", tc.in, got, ok, tc.want, tc.ok)
		}
	}
	if F16.Bits() != 16 || I8.Bits() != 8 || F32.Bits() != 32 {
		t.Error("Bits() mismatch")
	}
	if F16.String() != "f16" || I8.String() != "i8" || F32.String() != "f32" {
		t.Error("String() mismatch")
	}
}
