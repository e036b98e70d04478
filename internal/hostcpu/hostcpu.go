// Package hostcpu is the process's one CPU feature probe: which vector
// instruction sets its assembly may run, decided once at start-up from
// CPUID and the register state the OS saves (XCR0). Every package with
// vector kernels (gemm, ops, tensor, precision) dispatches on it rather
// than probing again. On builds without assembly — any architecture but
// amd64, or amd64 under the noasm build tag — every feature reads false
// and the portable Go loops run.
package hostcpu

// The features, each including the ones it needs to be usable.
var (
	// AVX2FMA is AVX, AVX2 and FMA, with the OS saving YMM state.
	AVX2FMA bool
	// F16C is AVX2FMA and the half-precision conversions
	// (vcvtps2ph, vcvtph2ps).
	F16C bool
	// AVX512F is AVX2FMA and AVX-512F, with the OS saving opmask and ZMM
	// state.
	AVX512F bool
	// AVX512DQ is AVX512F and AVX-512DQ (vcvtqq2pd, the 64-bit integer
	// conversions).
	AVX512DQ bool
	// VNNI is AVX512F, AVX-512VL and AVX512-VNNI (vpdpwssd, also in its
	// EVEX.256 form).
	VNNI bool
)
