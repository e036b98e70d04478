package gemm

import (
	"fmt"
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

// TestTileStoreMatchesScalar pins addTileF32 — the assembly stores for a
// full-width tile where they run, the Go loops elsewhere and at the edges —
// to the scalar store written out here, bit for bit: dst = (dst +
// alpha·t) + bias[j], or overwriting dst = (0 + alpha·t) + bias[j] (dst,
// random and special values, never read), or with a row bias dst =
// rowBias[i] + alpha·t, then
// RoundF16 with the f16 re-store and ReLU's sign-bit rule, over every row
// and column count of a tile, three alphas, every epilogue, and operands
// holding the special values of storeValues. Where the assembly stores run
// it checks the Go loops on full-width tiles too (tileStoreGoToo). A NaN
// meets no other NaN in one add: which operand's NaN an add returns is the
// compiler's choice.
func TestTileStoreMatchesScalar(t *testing.T) {
	checkTileStore(t)
	tileStoreGoToo(t)
}

// checkTileStore is TestTileStoreMatchesScalar's check on the store
// paths the build selects.
func checkTileStore(t *testing.T) {
	t.Helper()
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
		for ep := 0; ep < 24; ep++ {
			bias, rowBias, f16, relu, over := ep%3 == 1, ep%3 == 2, ep/3%2 == 1, ep/6%2 == 1, ep/12 == 1
			if over && rowBias {
				continue
			}
			name := fmt.Sprintf("bias=%t rowBias=%t overwrite=%t f16=%t relu=%t", bias, rowBias, over, f16, relu)
			for rows := 1; rows <= MR; rows++ {
				for cols := 1; cols <= NR; cols++ {
					var tile [MR * NR]float32
					dst := make([]float32, MR*ldd)
					bs, rbs := make([]float32, n), make([]float32, MR)
					for _, d := range [][]float32{tile[:], dst, bs, rbs} {
						for i := range d {
							d[i] = draw()
						}
					}
					e := Epilogue{Overwrite: over, F16: f16, ReLU: relu}
					if bias {
						e.Bias = bs
					}
					if rowBias {
						e.RowBias = rbs
					}
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
							if rowBias {
								if isNaN(at) && isNaN(rbs[r]) {
									tile[r*NR+c], at = 1, alpha
								}
								want[i] = rbs[r] + at
							} else if over {
								want[i] = 0 + at
							} else {
								if isNaN(at) && isNaN(want[i]) {
									want[i], dst[i] = 1, 1
								}
								want[i] += at
							}
							if isNaN(want[i]) && isNaN(bs[j0+c]) {
								bs[j0+c] = 1
							}
						}
					}
					for r := 0; r < rows; r++ {
						for c := 0; c < cols; c++ {
							i := r*ldd + j0 + c
							if bias {
								want[i] += bs[j0+c]
							}
							if f16 {
								want[i] = precision.RoundF16(want[i])
							}
							if relu && math.Float32bits(want[i])>>31 == 1 {
								want[i] = 0
							}
						}
					}
					addTileF32(dst, ldd, &tile, 0, j0, m, nn, alpha, &e)
					for i, v := range dst {
						if math.Float32bits(v) != math.Float32bits(want[i]) {
							t.Fatalf("alpha=%v %s %dx%d tile: dst[%d] = %g (%#08x), scalar store %g (%#08x)",
								alpha, name, rows, cols, i, v, math.Float32bits(v), want[i], math.Float32bits(want[i]))
						}
					}
				}
			}
		}
	}
}
