//go:build amd64 && !noasm

package hostcpu

// cpuid and xgetbv are implemented in cpuid_amd64.s.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

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
		avx512dq   = 1 << 17 // CPUID.7:EBX
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
	AVX2FMA = true
	F16C = ecx1&f16cBit != 0
	AVX512F = ebx7&avx512fBit != 0 && xlo&zmmState == zmmState
	AVX512DQ = AVX512F && ebx7&avx512dq != 0
	VNNI = AVX512F && ebx7&avx512vl != 0 && ecx7&avx512vnni != 0
}
