//go:build !amd64 || noasm

package gemm

// No assembly micro-kernels outside amd64, or on amd64 under the noasm
// build tag (which exists so tests can run the portable kernels where CI
// runs): the generic kernels carry the same panel layout and accumulation
// order.
const (
	asmKernels = false
	asmF16     = false
	asmVNNI    = false
)

// asmWide is never set here; it is a variable only because the tests
// that switch the tile-pair and one-panel kernels and the vector packing
// bodies off assign it.
var asmWide = false

func kernF32(ap, bp []float32, tile *[MR * NR]float32, k int) {
	genericKernF32(ap, bp, tile, k)
}

func kernI8(ap []int16, bp []int8, tile *[MR * NR]int32, kp int) {
	genericKernI8(ap, bp, tile, kp)
}

// The asm kernels are unreachable while asmF16 and asmWide are false; the
// stubs satisfy the drivers' references.
func kernF16Asm(ap *float32, bp *uint16, tile *float32, k int64) {
	panic("gemm: f16 asm kernel unavailable on this platform")
}

func kernF32x2Asm(ap, bp, tile *float32, k int64) {
	panic("gemm: tile-pair asm kernel unavailable on this platform")
}

func kernF16x2Asm(ap *float32, bp *uint16, tile *float32, k int64) {
	panic("gemm: tile-pair asm kernel unavailable on this platform")
}

func kernF32x4Asm(ap, bp, tile *float32, k int64) {
	panic("gemm: one-panel asm kernel unavailable on this platform")
}

func kernF16x4Asm(ap *float32, bp *uint16, tile *float32, k int64) {
	panic("gemm: one-panel asm kernel unavailable on this platform")
}

func kernF32x4R2Asm(ap, bp, tile *float32, k int64) {
	panic("gemm: one-panel asm kernel unavailable on this platform")
}

func kernF16x4R2Asm(ap *float32, bp *uint16, tile *float32, k int64) {
	panic("gemm: one-panel asm kernel unavailable on this platform")
}

func storeTileAsm(dst *float32, ldd int64, src *float32, lds int64, tile *float32, rows int64, alpha float32, bias *float32) {
	panic("gemm: asm tile store unavailable on this platform")
}

func storeTileRowAsm(dst *float32, ldd int64, tile *float32, rows int64, alpha float32, rowBias *float32, relu bool) {
	panic("gemm: asm tile store unavailable on this platform")
}

func packAAsm(ap, a *float32, m, k, lda, k16 int64) {
	panic("gemm: asm PackA unavailable on this platform")
}

func packBTAsm(bp, b *float32, n, k, ldb, k16 int64) {
	panic("gemm: asm PackBT unavailable on this platform")
}

func packConvAsm(p, img *float32, t *convRuns, c, kh, kw, runs, w, plane int64) {
	panic("gemm: asm convolution gather unavailable on this platform")
}
