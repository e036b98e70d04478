//go:build amd64 && !noasm

package gemm

// cpuid and xgetbv are implemented in cpuid_amd64.s.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// asmKernels selects the AVX2+FMA assembly micro-kernels; asmF16
// additionally requires F16C for the vcvtph2ps B-panel path; asmVNNI
// additionally requires AVX512-VNNI with VL (the assembler emits the
// EVEX.256 form of vpdpwssd) for the fused int8 dot-accumulate kernel;
// asmWide additionally requires AVX-512F with the OS saving ZMM state for
// the f32 and f16 tile-pair and one-panel kernels, the PackA and PackBT
// transposes and PackBConv's stride-1 gather. Tests clear asmWide to run
// the 4×16 kernels and the scalar packing loops alone; hasZMM keeps the
// probe's answer for AVX512, which such a test does not change, and
// hasDQ that answer with AVX-512DQ as well, for AVX512DQ.
var (
	asmKernels bool
	asmF16     bool
	asmVNNI    bool
	asmWide    bool
	hasZMM     bool
	hasDQ      bool
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
	asmKernels = true
	asmF16 = ecx1&f16cBit != 0
	zmm := ebx7&avx512fBit != 0 && xlo&zmmState == zmmState
	asmVNNI = zmm && ebx7&avx512vl != 0 && ecx7&avx512vnni != 0
	asmWide = zmm
	hasZMM = zmm
	hasDQ = zmm && ebx7&avx512dq != 0
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

// kernF32x2Asm and kernF16x2Asm (kernel512_amd64.s) overwrite the four
// MR×NR tiles of A panels ap, ap+k·MR and B panels bp, bp+k·NR.
//
//go:noescape
func kernF32x2Asm(ap, bp, tile *float32, k int64)

//go:noescape
func kernF16x2Asm(ap *float32, bp *uint16, tile *float32, k int64)

// kernF32x4Asm and kernF16x4Asm (kernel512_amd64.s) overwrite the four
// MR×NR tiles of A panel ap and B panels bp + j·k·NR, j = 0..3; the R2
// forms compute and write rows 0 and 1 of each tile only.
//
//go:noescape
func kernF32x4Asm(ap, bp, tile *float32, k int64)

//go:noescape
func kernF16x4Asm(ap *float32, bp *uint16, tile *float32, k int64)

//go:noescape
func kernF32x4R2Asm(ap, bp, tile *float32, k int64)

//go:noescape
func kernF16x4R2Asm(ap *float32, bp *uint16, tile *float32, k int64)

// storeTileAsm (kernel_amd64.s) is addTileF32's store of a full-width
// tile of rows rows at f32: dst[r·ldd+c] = (dst[r·ldd+c] + alpha·
// tile[r·NR+c]) + bias[c], without the bias when it is nil. The caller
// bounds-checks the last element it writes and reads.
//
//go:noescape
func storeTileAsm(dst *float32, ldd int64, tile *float32, rows int64, alpha float32, bias *float32)

// storeTileRowAsm (kernel_amd64.s) is the same store with a row bias:
// dst[r·ldd+c] = alpha·tile[r·NR+c] + rowBias[r], dst not read, and with
// relu each element whose sign bit is set cleared. The caller
// bounds-checks the last element it writes and reads.
//
//go:noescape
func storeTileRowAsm(dst *float32, ldd int64, tile *float32, rows int64, alpha float32, rowBias *float32, relu bool)

// packAAsm (pack_amd64.s) is PackA over columns [0, k16) of every
// panel of an m-row block, k16 a multiple of 16 and ≤ k: rows past m
// are stored as zeros and never read. The caller bounds-checks the last
// element it reads and writes.
//
//go:noescape
func packAAsm(ap, a *float32, m, k, lda, k16 int64)

// packBTAsm (pack_amd64.s) is PackBT over panel rows [0, k16) of every
// panel of an n-row block, k16 a multiple of 16 and ≤ k: columns past n
// are stored as zeros and never read. The caller bounds-checks the last
// element it reads and writes.
//
//go:noescape
func packBTAsm(bp, b *float32, n, k, ldb, k16 int64)

// packConvAsm (pack_amd64.s) fills one PackBConv panel of c·kh·kw rows
// from packBConvWide's table of runs: row (ci, ky, kx), lane c, is
// img[ci·plane + base[r] + ky·w + kx + c] for the run r whose mask
// enables lane c, and zero where none does. The caller bounds-checks the
// panel and the image; a masked-off lane reads nothing.
//
//go:noescape
func packConvAsm(p, img *float32, t *convRuns, c, kh, kw, runs, w, plane int64)

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
