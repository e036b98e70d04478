package gemm

import (
	"math"
	"math/rand"
	"testing"

	"mmbench/internal/precision"
)

// storeValues are the tile, dst and bias entries TestTileStoreMatchesScalar
// draws from beside random ones: signed zeros, infinities, a NaN, the
// smallest subnormal, the largest finite float and values the float16
// grid rounds up to Inf or down into its subnormals.
var storeValues = []float32{
	0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
	math.SmallestNonzeroFloat32, -math.MaxFloat32, 65520, 3e-6, 1,
}

// TestTileStoreMatchesScalar pins addTileF32 — the assembly store for a
// full-width tile where it runs, the Go loops elsewhere and at the edges —
// to the scalar store written out here: dst = (dst + alpha·t) + bias[j],
// then RoundF16 with the f16 re-store, bit for bit, over every row and
// column count of a tile, three alphas, each epilogue, and operands
// holding the special values of storeValues. A NaN meets no other NaN in
// one add: which operand's NaN an add returns is the compiler's choice.
func TestTileStoreMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	draw := func() float32 {
		if rng.Intn(3) == 0 {
			return storeValues[rng.Intn(len(storeValues))]
		}
		return float32(rng.NormFloat64())
	}
	isNaN := func(v float32) bool { return v != v }
	const ldd, n = 2*NR + 3, 2 * NR
	for _, alpha := range []float32{1, 0.5, -1.5} {
		for _, ep := range []string{"none", "bias", "f16", "bias+f16"} {
			for rows := 1; rows <= MR; rows++ {
				for cols := 1; cols <= NR; cols++ {
					var tile [MR * NR]float32
					dst := make([]float32, MR*ldd)
					bias := make([]float32, n)
					for i := range tile {
						tile[i] = draw()
					}
					for i := range dst {
						dst[i] = draw()
					}
					for i := range bias {
						bias[i] = draw()
					}
					var e Epilogue
					if ep == "bias" || ep == "bias+f16" {
						e.Bias = bias
					}
					e.F16 = ep == "f16" || ep == "bias+f16"
					// The tile's columns are [j0, j0+cols) of an n-wide dst.
					j0 := n - NR
					m, nn := rows, j0+cols
					// Sums first, so a NaN bias can be cleared from a column
					// in which some row's sum is NaN before any row uses it.
					want := append([]float32(nil), dst...)
					for r := 0; r < rows; r++ {
						for c := 0; c < cols; c++ {
							i := r*ldd + j0 + c
							at := alpha * tile[r*NR+c]
							if isNaN(at) && isNaN(want[i]) {
								want[i], dst[i] = 1, 1
							}
							want[i] += at
							if isNaN(want[i]) && isNaN(bias[j0+c]) {
								bias[j0+c] = 1
							}
						}
					}
					for r := 0; r < rows; r++ {
						for c := 0; c < cols; c++ {
							i := r*ldd + j0 + c
							if e.Bias != nil {
								want[i] += bias[j0+c]
							}
							if e.F16 {
								want[i] = precision.RoundF16(want[i])
							}
						}
					}
					addTileF32(dst, ldd, &tile, 0, j0, m, nn, alpha, e)
					for i, v := range dst {
						if math.Float32bits(v) != math.Float32bits(want[i]) {
							t.Fatalf("alpha=%v epilogue %s %dx%d tile: dst[%d] = %g (%#08x), scalar store %g (%#08x)",
								alpha, ep, rows, cols, i, v, math.Float32bits(v), want[i], math.Float32bits(want[i]))
						}
					}
				}
			}
		}
	}
}
