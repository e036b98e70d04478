//go:build amd64 && !noasm

package tensor

import "mmbench/internal/gemm"

// vecFills selects the AVX-512 bodies of the fills and of the block
// refill (fill_amd64.s) on the probe that selects the GEMM's tile-pair
// kernels, with AVX-512DQ for vcvtqq2pd. Tests clear it to run the Go
// loops alone.
var vecFills = gemm.AVX512DQ()

// uniformAsm and normalAsm store dst[k] from src[k] for k < n, n a
// multiple of 16, with the Go loops' operations, and stop at the first
// word that leaves the fast path: they return its index (n if none), and
// store nothing from it on.
//
//go:noescape
func uniformAsm(dst *float32, src *uint64, n int64, lo, hi float32) int64

//go:noescape
func normalAsm(dst *float32, src *uint64, n int64, mean, std float32) int64

// refillAsm is stream.refill's two lagged adds over the block.
//
//go:noescape
func refillAsm(w *[rngLen]uint64)

// fillVec runs body, uniformAsm or normalAsm, over the first
// len(out)&^15 words of w when the vector bodies are selected and returns
// how many elements it stored; the Go loop goes on from there. w must be
// at least as long as out.
func fillVec(body func(dst *float32, src *uint64, n int64, a, b float32) int64, out []float32, w []uint64, a, b float32) int {
	n := len(out) &^ 15
	if !vecFills || n == 0 {
		return 0
	}
	return int(body(&out[0], &w[:len(out)][0], int64(n), a, b))
}
