package gemm

import (
	"math"
	"math/rand"
	"testing"
)

// TestPackAMatchesScalar pins PackA's AVX-512F transpose to the scalar
// loop and to the panel definition, bit for bit: every m in 1..9 (each
// m mod MR, so full and zero-padded last panels), every k in 1..70 (each
// k mod 16 around the vector body's edge), rows k and k+5 apart, over
// inputs dense with NaN payloads, read from a block that ends at its last
// element. Each form packs into two destinations poisoned with different
// NaNs, which must come out equal: every one of the LenA(m, k) elements
// is written, and nothing past them.
func TestPackAMatchesScalar(t *testing.T) {
	checkRowPack(t, "PackA", MR, 9, 17, LenA, PackA)
}

// TestPackBTMatchesScalar is TestPackAMatchesScalar for PackBT's 16×16
// transpose: every n in 1..33 (each n mod 16, so full and zero-padded
// last panels, over one to three panels), k 1..70, rows k and k+5 apart.
func TestPackBTMatchesScalar(t *testing.T) {
	checkRowPack(t, "PackBT", NR, 33, 19,
		func(n, k int) int { return LenB(k, n) },
		func(bp, b []float32, n, k, ldb int) { PackBT(bp, b, k, n, ldb) })
}

// checkRowPack runs the check both tests describe for a routine that
// packs rows×k of a row-major block, rows ld apart, into panels of width
// rows each: dst[(ip*k+l)*width+r] = src[(ip*width+r)*ld+l], zero past the
// last row, length(rows, k) elements in all.
func checkRowPack(t *testing.T, name string, width, maxRows int, seed int64, length func(rows, k int) int, pack func(dst, src []float32, rows, k, ld int)) {
	type form struct {
		name string
		run  func(fn func())
	}
	forms := []form{{"vector", func(fn func()) { fn() }}, {"scalar", narrowKernels}}
	if !asmWide {
		t.Log("no AVX-512F with ZMM state on this host (or a noasm/non-amd64 build): only the scalar loop runs")
		forms = forms[:1]
	}
	rng := rand.New(rand.NewSource(seed))
	payloads := []uint32{0x7f800001, 0x7fa00000, 0x7fc00000, 0x7fffffff, 0xff800001, 0xffc00000, 0xffd5a5a5, 0x80000000, 0x00000001}
	const poisonA, poisonB, past = 0x7fbadbad, 0xffcafe01, 0x7f80dead
	for m := 1; m <= maxRows; m++ {
		for k := 1; k <= 70; k++ {
			for _, ld := range []int{k, k + 5} {
				n := (m-1)*ld + k
				a := make([]float32, 3+n)[3:]
				for i := range a {
					if rng.Intn(3) == 0 {
						a[i] = math.Float32frombits(payloads[rng.Intn(len(payloads))])
					} else {
						a[i] = math.Float32frombits(rng.Uint32())
					}
				}
				la := length(m, k)
				want := make([]float32, la)
				for ip := 0; ip*width < m; ip++ {
					for l := 0; l < k; l++ {
						for r := 0; r < width; r++ {
							if i := ip*width + r; i < m {
								want[(ip*k+l)*width+r] = a[i*ld+l]
							}
						}
					}
				}
				run := func(poison uint32) []float32 {
					ap := make([]float32, la+4)
					for i := range ap {
						ap[i] = math.Float32frombits(poison)
					}
					for i := la; i < len(ap); i++ {
						ap[i] = math.Float32frombits(past)
					}
					pack(ap[:la], a, m, k, ld)
					for i := la; i < len(ap); i++ {
						if math.Float32bits(ap[i]) != past {
							t.Fatalf("%s rows=%d k=%d ld=%d: wrote [%d], past the %d panel elements", name, m, k, ld, i, la)
						}
					}
					return ap[:la]
				}
				for _, form := range forms {
					var got, again []float32
					form.run(func() { got, again = run(poisonA), run(poisonB) })
					for i := range want {
						if math.Float32bits(got[i]) != math.Float32bits(want[i]) || math.Float32bits(again[i]) != math.Float32bits(want[i]) {
							t.Fatalf("%s %s rows=%d k=%d ld=%d: [%d] = %#08x / %#08x over two poisons, want %#08x",
								form.name, name, m, k, ld, i, math.Float32bits(got[i]), math.Float32bits(again[i]), math.Float32bits(want[i]))
						}
					}
				}
			}
		}
	}
}
