//go:build amd64 && !noasm

package gemm

import "mmbench/internal/hostcpu"

// asmKernels selects the AVX2+FMA assembly micro-kernels; asmF16
// additionally requires F16C for the vcvtph2ps B-panel path; asmVNNI
// additionally requires AVX512-VNNI with VL (the assembler emits the
// EVEX.256 form of vpdpwssd) for the fused int8 dot-accumulate kernel;
// asmWide additionally requires AVX-512F with the OS saving ZMM state for
// the f32 and f16 tile-pair and one-panel kernels, the PackA and PackBT
// transposes and PackBConv's stride-1 gather. Tests clear asmWide to run
// the 4×16 kernels and the scalar packing loops alone.
var (
	asmKernels = hostcpu.AVX2FMA
	asmF16     = hostcpu.F16C
	asmVNNI    = hostcpu.VNNI
	asmWide    = hostcpu.AVX512F
)

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
// tile of rows rows at f32: dst[r·ldd+c] = (src[r·lds+c] + alpha·
// tile[r·NR+c]) + bias[c], without the bias when it is nil. src is dst
// (lds = ldd) for an accumulating store, or a zero row (lds = 0) for an
// overwriting one, which never reads dst. The caller bounds-checks the
// last element it writes and reads.
//
//go:noescape
func storeTileAsm(dst *float32, ldd int64, src *float32, lds int64, tile *float32, rows int64, alpha float32, bias *float32)

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
