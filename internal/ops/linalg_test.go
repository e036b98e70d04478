package ops

import (
	"math"
	"testing"

	"mmbench/internal/autograd"
	"mmbench/internal/engine"
	"mmbench/internal/gemm"
	"mmbench/internal/precision"
	"mmbench/internal/tensor"
)

// twoPassLinear is Linear's forward with its bias and f16 re-store as
// separate passes after the product, the way it ran before both joined
// the GEMM tile store: the product into a zeroed output, then the bias
// added row by row, then the whole output rounded through the float16
// grid (at f16 only).
func twoPassLinear(c *Ctx, x, w, bias *Var) []float32 {
	in, outDim := w.Value.Dim(0), w.Value.Dim(1)
	rows := x.Value.Size() / in
	od := make([]float32, rows*outDim)
	c.product(w.Frozen, od, x.Value.Data(), w.Value.Data(), rows, in, outDim, gemm.Epilogue{})
	if c.prec == precision.F16 && bias == nil {
		precision.RoundF16Slice(od, od)
	}
	if bias != nil {
		bd := bias.Value.Data()
		for r := 0; r < rows; r++ {
			row := od[r*outDim : (r+1)*outDim]
			for j := range row {
				row[j] += bd[j]
			}
		}
		if c.prec == precision.F16 {
			precision.RoundF16Slice(od, od)
		}
	}
	return od
}

// epilogueOperands returns a rows×in input, an in×n weight and an n-long
// bias. At special level 1 they carry values where the order of the store
// matters: biases of −0, ±Inf, NaN and 65520 (which the f16 grid rounds up
// to Inf), and a first input row of tiny positives. Level 2 adds special
// weights: columns whose dots are +Inf, ±Inf or NaN (an Inf meets an Inf
// of the other sign), and every fifth column tiny negatives with a −0
// bias, whose dot against the tiny row underflows to −0 on a fused
// multiply-add, where (0 + acc) + b is +0 and acc + b is −0. A NaN bias
// sits in no column whose dot can be NaN: which NaN operand an add returns
// is the compiler's choice (it differs under -race), in both forms alike.
func epilogueOperands(g *tensor.RNG, rows, in, n, special int) (x, w, bias *Var) {
	x, w, bias = benchVar(g, rows, in), benchVar(g, in, n), benchVar(g, n)
	if special == 0 {
		return x, w, bias
	}
	xd, wd, bd := x.Value.Data(), w.Value.Data(), bias.Value.Data()
	for l := 0; l < in; l++ {
		xd[l] = 1e-30
	}
	inf := float32(math.Inf(1))
	for j := 0; j < n; j++ {
		switch j % 8 {
		case 0:
			bd[j] = float32(math.Copysign(0, -1))
		case 1:
			bd[j] = inf
		case 2:
			bd[j] = -inf
		case 3:
			if j%5 != 2 && j%5 != 3 {
				bd[j] = float32(math.NaN())
			}
		case 4:
			bd[j] = 65520
		}
		if special < 2 {
			continue
		}
		switch j % 5 {
		case 1:
			wd[j] = inf
		case 2:
			wd[j] = inf
			if in > 1 {
				wd[n+j] = -inf
			}
		case 3:
			wd[j] = float32(math.NaN())
		case 4:
			for l := 0; l < in; l++ {
				wd[l*n+j] = -1e-30
			}
			bd[j] = float32(math.Copysign(0, -1))
		}
	}
	return x, w, bias
}

// TestLinearEpilogueMatchesTwoPass pins the store epilogue at the
// operator: Linear, whose bias and f16 re-store run in the GEMM's tile
// store, gives every element the bits of the product followed by the bias
// pass and the rounding pass (twoPassLinear). The grid covers f32, f16
// and i8; bias nil or present; every row count 1–9 (each m mod 4, the
// one-panel kernel's four- and two-row forms at m ≤ 4 with n ≥ 64); n
// around the 16-column panel edges; kept and per-call weight panels; a
// lone request and a merged [1, 2] batch; 1 and 3 workers; finite
// operands and the special values of epilogueOperands (the special
// weights at f32 and f16 only: an Inf or NaN weight is the int8 weight
// scale, which makes every i8 output non-finite).
func TestLinearEpilogueMatchesTwoPass(t *testing.T) {
	engines := []*engine.Engine{engine.New(1), engine.New(3)}
	defer func() {
		for _, e := range engines {
			e.Close()
		}
	}()
	g := tensor.NewRNG(37)
	for special := 0; special <= 2; special++ {
		for _, in := range []int{5, 37} {
			for _, n := range []int{1, 15, 16, 17, 33, 64, 100} {
				for rows := 1; rows <= 9; rows++ {
					x, w, bias := epilogueOperands(g, rows, in, n, special)
					frozen := autograd.NewVar(w.Value)
					frozen.Frozen = gemm.NewPackedB(nil)
					segsList := [][]int{nil}
					if rows%3 == 0 {
						segsList = append(segsList, []int{1, 2})
					}
					for _, p := range []precision.Type{precision.F32, precision.F16, precision.I8} {
						if special == 2 && p == precision.I8 {
							continue
						}
						for _, b := range []*Var{nil, bias} {
							for _, wv := range []*Var{w, frozen} {
								for _, segs := range segsList {
									for _, e := range engines {
										ctx := func() *Ctx {
											c := lowpCtx(e, p)
											c.Segments = segs
											return c
										}
										want := twoPassLinear(ctx(), x, wv, b)
										got := ctx().Linear(x, wv, b).Value.Data()
										for i, v := range got {
											if math.Float32bits(v) != math.Float32bits(want[i]) {
												t.Fatalf("%s special=%d %dx%dx%d bias=%v kept=%v segs=%v workers=%d: out[%d] = %g (%#08x), two-pass %g (%#08x)",
													p, special, rows, in, n, b != nil, wv.Frozen != nil, segs, e.Workers(),
													i, v, math.Float32bits(v), want[i], math.Float32bits(want[i]))
											}
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestLinearStoresOnce: Linear's forward is its product alone, with or
// without a bias and at f32 or f16 — no bias pass or rounding pass runs
// after it (the two-pass form ran one more engine task for the bias and
// one for the f16 re-store).
func TestLinearStoresOnce(t *testing.T) {
	g := tensor.NewRNG(41)
	x, w, bias := benchVar(g, 2, 32), benchVar(g, 32, 48), benchVar(g, 48)
	for _, p := range []precision.Type{precision.F32, precision.F16} {
		e := engine.New(1)
		product := func() int64 {
			before := e.Stats().Tasks
			lowpCtx(e, p).product(nil, make([]float32, 2*48), x.Value.Data(), w.Value.Data(), 2, 32, 48, gemm.Epilogue{})
			return e.Stats().Tasks - before
		}()
		for _, b := range []*Var{nil, bias} {
			before := e.Stats().Tasks
			lowpCtx(e, p).Linear(x, w, b)
			if got := e.Stats().Tasks - before; got != product {
				t.Errorf("%s bias=%v: Linear ran %d engine tasks, its product alone %d", p, b != nil, got, product)
			}
		}
		e.Close()
	}
}
