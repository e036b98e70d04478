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

func kernF32(ap, bp []float32, tile *[MR * NR]float32, k int) {
	genericKernF32(ap, bp, tile, k)
}

func kernI8(ap []int16, bp []int8, tile *[MR * NR]int32, kp int) {
	genericKernI8(ap, bp, tile, kp)
}

// kernF16Asm is unreachable when asmF16 is false; the stub satisfies the
// F16 driver's reference.
func kernF16Asm(ap *float32, bp *uint16, tile *float32, k int64) {
	panic("gemm: f16 asm kernel unavailable on this platform")
}
