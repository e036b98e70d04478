//go:build amd64 && !noasm

package gemm

// cpuid and xgetbv are implemented in cpuid_amd64.s.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// asmKernels selects the AVX2+FMA assembly micro-kernels; asmF16
// additionally requires F16C for the vcvtph2ps B-panel path; asmVNNI
// additionally requires AVX512-VNNI with VL (the assembler emits the
// EVEX.256 form of vpdpwssd) for the fused int8 dot-accumulate kernel.
var (
	asmKernels bool
	asmF16     bool
	asmVNNI    bool
)

func init() {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return
	}
	const (
		fmaBit     = 1 << 12
		osxsaveBit = 1 << 27
		avxBit     = 1 << 28
		f16cBit    = 1 << 29
		avx2Bit    = 1 << 5  // CPUID.7:EBX
		avx512fBit = 1 << 16 // CPUID.7:EBX
		avx512vl   = 1 << 31 // CPUID.7:EBX
		avx512vnni = 1 << 11 // CPUID.7:ECX
		// XCR0: SSE|AVX state, plus opmask|ZMM_Hi256|Hi16_ZMM for EVEX.
		ymmState = 0x6
		zmmState = 0xe6
	)
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&osxsaveBit == 0 || ecx1&avxBit == 0 || ecx1&fmaBit == 0 {
		return
	}
	// The OS must save/restore XMM and YMM state (XCR0 bits 1 and 2).
	xlo, _ := xgetbv()
	if xlo&ymmState != ymmState {
		return
	}
	_, ebx7, ecx7, _ := cpuid(7, 0)
	if ebx7&avx2Bit == 0 {
		return
	}
	asmKernels = true
	asmF16 = ecx1&f16cBit != 0
	asmVNNI = ebx7&avx512fBit != 0 && ebx7&avx512vl != 0 &&
		ecx7&avx512vnni != 0 && xlo&zmmState == zmmState
}

// Assembly micro-kernels (kernel_amd64.s). Each overwrites a full MR×NR
// tile accumulated over k (or kp pair) panel rows; pointers reach the
// first element of slices the Go callers keep live, so noescape is safe
// (the asm makes no calls and the pointers never outlive the call).
//
//go:noescape
func kernF32Asm(ap, bp, tile *float32, k int64)

//go:noescape
func kernF16Asm(ap *float32, bp *uint16, tile *float32, k int64)

//go:noescape
func kernI8Asm(ap *int16, bp *int8, tile *int32, kp int64)

//go:noescape
func kernI8VNNIAsm(ap *int16, bp *int8, tile *int32, kp int64)

func kernF32(ap, bp []float32, tile *[MR * NR]float32, k int) {
	if asmKernels {
		kernF32Asm(&ap[0], &bp[0], &tile[0], int64(k))
		return
	}
	genericKernF32(ap, bp, tile, k)
}

func kernI8(ap []int16, bp []int8, tile *[MR * NR]int32, kp int) {
	if asmVNNI {
		kernI8VNNIAsm(&ap[0], &bp[0], &tile[0], int64(kp))
		return
	}
	if asmKernels {
		kernI8Asm(&ap[0], &bp[0], &tile[0], int64(kp))
		return
	}
	genericKernI8(ap, bp, tile, kp)
}
