package ops

import (
	"fmt"
	"strings"
	"testing"

	"mmbench/internal/autograd"
	"mmbench/internal/engine"
	"mmbench/internal/gemm"
	"mmbench/internal/precision"
	"mmbench/internal/tensor"
)

// frozenParam is a parameter as a store network holds it after Freeze.
func frozenParam(g *tensor.RNG, shape ...int) *Var {
	t := tensor.New(shape...)
	g.Uniform(t, -1, 1)
	p := autograd.Param(t)
	p.Frozen = gemm.NewPackedB(nil)
	return p
}

// TestLinearFrozenWeightBitwise: Linear over a frozen weight — first
// call (packs) and second (reuses), merged i8 segments included — has
// the bits of Linear over the same weight unfrozen, and only the frozen
// weight ends up keeping panels.
func TestLinearFrozenWeightBitwise(t *testing.T) {
	g := tensor.NewRNG(23)
	const rows, in, out = 6, 33, 40
	x := benchVar(g, rows, in)
	frozen, bias := frozenParam(g, in, out), frozenParam(g, out)
	private := autograd.Param(frozen.Value)
	for _, p := range []precision.Type{precision.F32, precision.F16, precision.I8} {
		for _, segs := range [][]int{nil, {1, 2, 3}} {
			for _, workers := range []int{1, 4} {
				e := engine.New(workers)
				ctx := func() *Ctx {
					c := lowpCtx(e, p)
					c.Segments = segs
					return c
				}
				want := ctx().Linear(x, private, bias).Value.Data()
				for use := 1; use <= 2; use++ {
					got := ctx().Linear(x, frozen, bias).Value.Data()
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("%s segs=%v workers=%d use %d: out[%d] = %g, want %g", p, segs, workers, use, i, got[i], want[i])
						}
					}
				}
				e.Close()
			}
		}
	}
	if frozen.Frozen.Bytes() == 0 {
		t.Error("the frozen weight kept no panels")
	}
	if bias.Frozen.Bytes() != 0 {
		t.Error("a bias kept panels: only a Linear weight is a GEMM B operand")
	}
}

// TestFrozenParameterRefusesTape: the frozen-network rule enforces
// itself — any taped operator over a frozen parameter panics, naming the
// rule, instead of recording a backward step that would write into
// shared weights.
func TestFrozenParameterRefusesTape(t *testing.T) {
	g := tensor.NewRNG(29)
	x := benchVar(g, 2, 8)
	w, gain := frozenParam(g, 8, 8), frozenParam(g, 2, 8)
	ops := map[string]func(c *Ctx){
		"Linear": func(c *Ctx) { c.Linear(x, w, nil) },
		"Mul":    func(c *Ctx) { c.Mul(x, gain) },
	}
	for name, op := range ops {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "frozen store network used under a tape: Build a private network") {
					t.Errorf("taped %s over a frozen parameter: recovered %v, want the frozen-network panic", name, r)
				}
			}()
			op(&Ctx{Tape: autograd.NewTape()})
		}()
		op(Infer()) // untaped use is what a frozen network is for
	}
}
