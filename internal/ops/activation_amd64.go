//go:build amd64 && !noasm

package ops

import "mmbench/internal/hostcpu"

// vecActivations selects the AVX-512F bodies of the activation kernels
// (activation_amd64.s) and of fused attention's row passes
// (attention_amd64.s) on the probe that selects the GEMM's tile-pair
// kernels.
var vecActivations = hostcpu.AVX512F

// geluAsm, sigmoidAsm and tanhAsm store n elements of dst from src, with
// n a multiple of 16; src and dst are either the same or disjoint.
//
//go:noescape
func geluAsm(dst, src *float32, n int64)

//go:noescape
func sigmoidAsm(dst, src *float32, n int64)

//go:noescape
func tanhAsm(dst, src *float32, n int64)

// rowsMaxAsm, rowsExpAsm and storeRowsAsm (attention_amd64.s) are the
// vector bodies of attnTileMax, attnTileExp and attnTileStore over the
// first n16 elements of each of rows rows, ld elements apart (a store's
// source rows are n apart). n16 is a positive multiple of 16.
//
//go:noescape
func rowsMaxAsm(st *float32, ld, n16, rows int64, m *float32)

//go:noescape
func rowsExpAsm(st *float32, ld, n16, rows int64, m *float32, l *float64)

//go:noescape
func storeRowsAsm(dst *float32, ldd int64, src *float32, n, n16, rows int64, inv *float32, scale float32)

// vecBody runs kernel over the first len(src)&^15 elements when the
// vector bodies are selected and returns how many it stored; the caller's
// scalar loop finishes the rest. dst must be at least as long as src.
func vecBody(kernel func(dst, src *float32, n int64), dst, src []float32) int {
	n := len(src) &^ 15
	if !vecActivations || n == 0 {
		return 0
	}
	kernel(&dst[:len(src)][0], &src[0], int64(n))
	return n
}
