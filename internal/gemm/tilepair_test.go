package gemm

import (
	"fmt"
	"math/rand"
	"testing"

	"mmbench/internal/engine"
)

// noTilePairs is why the tile-pair checks skip: the 8×32 and 4×64
// kernels run only where the CPU has AVX-512F and the OS saves ZMM state.
const noTilePairs = "no AVX-512F with ZMM state on this host (or a noasm/non-amd64 build): only the 4×16 kernel runs"

// narrowKernels runs fn with the AVX-512 kernels (tile pairs and one-panel)
// switched off, so every tile comes from the 4×16 kernel.
func narrowKernels(fn func()) {
	asmWide = false
	defer func() { asmWide = true }()
	fn()
}

// TestTilePairKernelsMatch4x16 pins the AVX-512 kernels' contract: an
// output element gets the fused chain the 4×16 kernel gives it, so every
// product has the bits it has with the 4×16 kernel alone. The grid spans
// 1–5 A panels with 1, 2, 3 and 4 live rows in the last one — an odd
// last panel runs the one-panel kernel, its two-row form for one or two
// live rows — × 1–9 B panels (groups of four with a remainder of 0–3,
// and the tile pairs' odd last panel), full and partial edge panels, K
// around the loop edges, every operand layout, alpha 1 and 0.5, F32 and
// F16, and three ways in: per-call panels (1 and 3 workers), a PackedB
// holder's kept panels, and the strided tile-level entry.
func TestTilePairKernelsMatch4x16(t *testing.T) {
	if !asmWide {
		t.Skip(noTilePairs)
	}
	engines := [2]*engine.Engine{engine.New(1), engine.New(3)}
	defer func() {
		for _, e := range engines {
			e.Close()
		}
	}()
	type path struct {
		name string
		mul  func(dst, a, b []float32, m, k, n int, alpha float32, aT, bT bool) []float32
	}
	perCall := func(e *engine.Engine, f16 bool) func(dst, a, b []float32, m, k, n int, alpha float32, aT, bT bool) []float32 {
		return func(dst, a, b []float32, m, k, n int, alpha float32, aT, bT bool) []float32 {
			dst = append([]float32(nil), dst...)
			if f16 {
				F16(e, dst, a, b, m, k, n, alpha, aT, bT)
			} else {
				F32(e, dst, a, b, m, k, n, alpha, aT, bT)
			}
			return dst
		}
	}
	kept := func(f16 bool) func(dst, a, b []float32, m, k, n int, alpha float32, aT, bT bool) []float32 {
		return func(dst, a, b []float32, m, k, n int, alpha float32, aT, bT bool) []float32 {
			dst = append([]float32(nil), dst...)
			// A fresh holder per product: its panels are packed under the
			// kernel choice in force, which packing does not depend on.
			h := NewPackedB(nil)
			if f16 {
				h.F16(engines[0], dst, a, b, m, k, n, alpha, aT, bT, Epilogue{})
			} else {
				h.F32(engines[0], dst, a, b, m, k, n, alpha, aT, bT, Epilogue{})
			}
			return dst
		}
	}
	paths := []path{
		{"F32 per call, 1 worker", perCall(engines[0], false)},
		{"F32 per call, 3 workers", perCall(engines[1], false)},
		{"F32 kept panels", kept(false)},
		{"F16 per call, 1 worker", perCall(engines[0], true)},
		{"F16 per call, 3 workers", perCall(engines[1], true)},
		{"F16 kept panels", kept(true)},
	}
	rng := rand.New(rand.NewSource(30))
	for ia := 1; ia <= 5; ia++ {
		for live := 1; live <= MR; live++ {
			m := ia*MR - MR + live
			for jb := 1; jb <= 9; jb++ {
				for _, n := range []int{jb*NR - NR + 3, jb * NR} {
					for _, k := range []int{1, 6, 33} {
						a, b, dst0 := randSlice(rng, m*k), randSlice(rng, k*n), randSlice(rng, m*n)
						at, bt := transpose(a, m, k), transpose(b, k, n)
						for _, alpha := range []float32{1, 0.5} {
							for _, aT := range []bool{false, true} {
								for _, bT := range []bool{false, true} {
									ain, bin := a, b
									if aT {
										ain = at
									}
									if bT {
										bin = bt
									}
									for _, p := range paths {
										wide := p.mul(dst0, ain, bin, m, k, n, alpha, aT, bT)
										var narrow []float32
										narrowKernels(func() { narrow = p.mul(dst0, ain, bin, m, k, n, alpha, aT, bT) })
										wantBits(t, fmt.Sprintf("%s %dx%dx%d alpha=%v aT=%v bT=%v: AVX-512 kernels against 4×16",
											p.name, m, k, n, alpha, aT, bT), wide, narrow)
									}
								}
							}
							wide := tileLevel(dst0, a, b, m, k, n, false, alpha)
							var narrow []float32
							narrowKernels(func() { narrow = tileLevel(dst0, a, b, m, k, n, false, alpha) })
							wantBits(t, fmt.Sprintf("tile-level entry %dx%dx%d alpha=%v: AVX-512 kernels against 4×16", m, k, n, alpha), wide, narrow)
							wide = tileLevel(dst0, a, bt, m, k, n, true, alpha)
							narrowKernels(func() { narrow = tileLevel(dst0, a, bt, m, k, n, true, alpha) })
							wantBits(t, fmt.Sprintf("tile-level entry %dx%dx%d alpha=%v bT: AVX-512 kernels against 4×16", m, k, n, alpha), wide, narrow)
						}
					}
				}
			}
		}
	}
}
