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
	type form struct {
		name string
		run  func(fn func())
	}
	forms := []form{{"vector", func(fn func()) { fn() }}, {"scalar", narrowKernels}}
	if !asmWide {
		t.Log("no AVX-512F with ZMM state on this host (or a noasm/non-amd64 build): only the scalar loop runs")
		forms = forms[:1]
	}
	rng := rand.New(rand.NewSource(17))
	payloads := []uint32{0x7f800001, 0x7fa00000, 0x7fc00000, 0x7fffffff, 0xff800001, 0xffc00000, 0xffd5a5a5, 0x80000000, 0x00000001}
	const poisonA, poisonB, past = 0x7fbadbad, 0xffcafe01, 0x7f80dead
	for m := 1; m <= 9; m++ {
		for k := 1; k <= 70; k++ {
			for _, lda := range []int{k, k + 5} {
				n := (m-1)*lda + k
				a := make([]float32, 3+n)[3:]
				for i := range a {
					if rng.Intn(3) == 0 {
						a[i] = math.Float32frombits(payloads[rng.Intn(len(payloads))])
					} else {
						a[i] = math.Float32frombits(rng.Uint32())
					}
				}
				la := LenA(m, k)
				want := make([]float32, la)
				for ip := 0; ip*MR < m; ip++ {
					for l := 0; l < k; l++ {
						for r := 0; r < MR; r++ {
							if i := ip*MR + r; i < m {
								want[(ip*k+l)*MR+r] = a[i*lda+l]
							}
						}
					}
				}
				pack := func(poison uint32) []float32 {
					ap := make([]float32, la+4)
					for i := range ap {
						ap[i] = math.Float32frombits(poison)
					}
					for i := la; i < len(ap); i++ {
						ap[i] = math.Float32frombits(past)
					}
					PackA(ap[:la], a, m, k, lda)
					for i := la; i < len(ap); i++ {
						if math.Float32bits(ap[i]) != past {
							t.Fatalf("m=%d k=%d lda=%d: wrote ap[%d], past LenA = %d", m, k, lda, i, la)
						}
					}
					return ap[:la]
				}
				for _, form := range forms {
					var got, again []float32
					form.run(func() { got, again = pack(poisonA), pack(poisonB) })
					for i := range want {
						if math.Float32bits(got[i]) != math.Float32bits(want[i]) || math.Float32bits(again[i]) != math.Float32bits(want[i]) {
							t.Fatalf("%s PackA m=%d k=%d lda=%d: ap[%d] = %#08x / %#08x over two poisons, want %#08x",
								form.name, m, k, lda, i, math.Float32bits(got[i]), math.Float32bits(again[i]), math.Float32bits(want[i]))
						}
					}
				}
			}
		}
	}
}
