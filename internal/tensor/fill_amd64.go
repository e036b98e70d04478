//go:build amd64 && !noasm

package tensor

import "mmbench/internal/gemm"

// vecFills selects the AVX-512 bodies of the fills and of the block
// refill (fill_amd64.s) on the probe that selects the GEMM's tile-pair
// kernels, with AVX-512DQ for vcvtqq2pd. Tests clear it to run the Go
// loops alone.
var vecFills = gemm.AVX512DQ()

// uniformAsm stores dst[k] from src[k] for k < n, n a multiple of 16,
// with the Go loop's operations, and stops at the first word that leaves
// the fast path: it returns its index (n if none), and stores nothing
// from it on.
//
//go:noescape
func uniformAsm(dst *float32, src *uint64, n int64, lo, hi float32) int64

// normalAsm draws NormFloat64's samples from src[:nsrc] into dst[:ndst]
// sixteen words a step, the last step short when fewer words or elements
// are left, and returns the words it consumed and the elements it
// stored. It takes the fast path and settles the wedge itself: an
// accepted wedge stores the fast path's value and a rejected one nothing,
// each consuming its word and the next, its uniform. It stops before a
// base-strip word, a wedge whose test its exp bound leaves undecided, and
// a wedge whose uniform is 1 or lies past nsrc; Normal hands that word to
// rand.Rand. nsrc and ndst must be positive.
//
//go:noescape
func normalAsm(dst *float32, ndst int64, src *uint64, nsrc int64, mean, std float32) (words, stored int64)

// refillAsm is stream.refill's two lagged adds over the block.
//
//go:noescape
func refillAsm(w *[rngLen]uint64)

// uniformVec runs uniformAsm over the first len(out)&^15 words of w when
// the vector bodies are selected and returns how many elements it
// stored; the Go loop goes on from there. w must be at least as long as
// out.
func uniformVec(out []float32, w []uint64, lo, hi float32) int {
	n := len(out) &^ 15
	if !vecFills || n == 0 {
		return 0
	}
	return int(uniformAsm(&out[0], &w[0], int64(n), lo, hi))
}

// normalVec runs normalAsm over out and w, neither empty, when the vector
// bodies are selected and returns the words it consumed and the elements
// it stored; the Go loop goes on from there.
func normalVec(out []float32, w []uint64, mean, std float32) (words, stored int) {
	if !vecFills {
		return 0, 0
	}
	c, k := normalAsm(&out[0], int64(len(out)), &w[0], int64(len(w)), mean, std)
	return int(c), int(k)
}
