package ops

import (
	"fmt"

	"mmbench/internal/gemm"
	"mmbench/internal/kernels"
	"mmbench/internal/precision"
)

// lstmStepKernels is the number of kernels one LSTM step emits; the
// first lstmProductKernels of them (the input slice and the two products'
// specs) describe its products, the rest its gate and cell pass.
const (
	lstmStepKernels    = 18
	lstmProductKernels = 4
)

// lstmStepSpecs returns the kernels one step of a b-row LSTM over d
// inputs and hidden width h emits, in the order the composed step (two
// Linears, an Add, four gate Slices with their activations, the cell and
// hidden updates) emits them, for the context's active precision:
//
//	slice x_t · linear x_t·W_x · bias_add · linear h·W_h · add ·
//	4 × (slice, sigmoid | sigmoid | tanh | sigmoid) ·
//	mul f⊙c · mul i⊙g · add · tanh · mul o⊙tanh(c)
func (c *Ctx) lstmStepSpecs(b, d, h int) [lstmStepKernels]kernels.Spec {
	n := b * h
	var s [lstmStepKernels]kernels.Spec
	s[0] = sliceSpec(b * d)
	x, _ := c.linearSpecs(b, d, 4*h, true)
	r, _ := c.linearSpecs(b, h, 4*h, false)
	s[1], s[2], s[3] = x[0], x[1], r[0]
	s[4] = addSpec(4 * n)
	for i, act := range [4]kernels.Spec{sigmoidSpec(n), sigmoidSpec(n), tanhSpec(n), sigmoidSpec(n)} {
		s[5+2*i], s[6+2*i] = sliceSpec(n), act
	}
	s[13], s[14], s[15], s[16], s[17] = mulSpec(n), mulSpec(n), addSpec(n), tanhSpec(n), mulSpec(n)
	return s
}

// LSTMSequence runs a single-layer LSTM with gate order (i, f, g, o) over
// x [B,T,D] from zero state — input weights wx [D,4H], recurrent weights
// wh [H,4H], bias [4H] — and returns the final hidden state [B,H]. It is
// the inference form of T composed steps
//
//	gates = x_t·W_x + b + h·W_h
//	c     = σ(f)⊙c + σ(i)⊙tanh(g)
//	h     = σ(o)⊙tanh(c)
//
// with the same kernel stream and the same output bits; it has no
// backward, so a taped context must compose the steps instead.
//
// Kernels: every step emits the composed step's 18 specs
// (lstmStepSpecs), for abstract and concrete inputs alike, so the modeled
// side cannot tell the two apart. A concrete step emits the products'
// specs before its products and the rest before its gate pass, so a
// profiler charges the products to the h·W_h linear span and the gate
// pass to the step's last elementwise span.
//
// Numerics: products are row-local, so at f32 and f16 the input
// projection runs as one GEMM over all B·T rows before the first step,
// and every row gets the bits of its per-step product. At i8 the
// activation scale is a per-step, per-request-segment statistic, so the
// input projection stays one product per step and segment, as in Linear.
// Each step then runs one h·W_h product (on the weight's kept panels when
// it has them) and one gate/cell pass per row (lstmCell), which repeats
// the composed operators' roundings one for one: the bias joins the input
// projection, f16 re-stores both projections through the grid, their sum
// is the gate pre-activation, and each product of the cell update is
// rounded to float32 before it is added (the explicit conversions keep
// the compiler from fusing them).
func (c *Ctx) LSTMSequence(x, wx, wh, bias *Var) *Var {
	if c.Tape != nil {
		panic("ops: LSTMSequence has no backward: compose the steps under a tape")
	}
	assertRank(x, 3, "LSTMSequence")
	b, t, d := x.Value.Dim(0), x.Value.Dim(1), x.Value.Dim(2)
	h4 := wx.Value.Dim(1)
	h := h4 / 4
	if wx.Value.Dim(0) != d || h4 != 4*h || wh.Value.Dim(0) != h || wh.Value.Dim(1) != h4 || bias.Value.Size() != h4 {
		panic(fmt.Sprintf("ops: LSTMSequence input %v with weights %v, %v and bias %v",
			x.Value.Shape(), wx.Value.Shape(), wh.Value.Shape(), bias.Value.Shape()))
	}
	specs := c.lstmStepSpecs(b, d, h)
	out := c.out([]int{b, h}, x, wx, wh, bias) // h_0 = 0
	if out.Value.Abstract() {
		for ti := 0; ti < t; ti++ {
			c.emitAll(specs[:])
		}
		return out
	}

	e := c.engine()
	xd, wxd, whd, bd := x.Value.Data(), wx.Value.Data(), wh.Value.Data(), bias.Value.Data()
	hd := out.Value.Data()
	i8 := c.prec == precision.I8
	f16 := c.prec == precision.F16
	cell := e.Get(b * h) // c_0 = 0
	defer e.Put(cell)
	hp := e.GetUninit(b * h4) // the step's h·W_h
	defer e.Put(hp)
	// xp holds input projections: row bi of the current step starts at
	// xoff + bi·xstride — all B·T rows at f32 and f16, the step's b rows
	// (gathered from x_t in xt) at i8.
	var xp, xt []float32
	xoff, xstride := 0, h4
	if i8 {
		xp = e.GetUninit(b * h4)
		xt = e.GetUninit(b * d)
		defer e.Put(xt)
	} else {
		xp = e.Get(b * t * h4)
		xstride = t * h4
	}
	defer e.Put(xp)
	cellRows := func(r0, r1 int) {
		for bi := r0; bi < r1; bi++ {
			lstmCell(xp[xoff+bi*xstride:][:h4], hp[bi*h4:][:h4], bd[:h4], cell[bi*h:][:h], hd[bi*h:][:h], f16)
		}
	}

	for ti := 0; ti < t; ti++ {
		c.emitAll(specs[:lstmProductKernels])
		switch {
		case i8:
			for bi := 0; bi < b; bi++ {
				copy(xt[bi*d:(bi+1)*d], xd[(bi*t+ti)*d:])
			}
			clear(xp)
			c.product(wx.Frozen, xp, xt, wxd, b, d, h4, gemm.Epilogue{})
		case ti == 0:
			c.product(wx.Frozen, xp, xd, wxd, b*t, d, h4, gemm.Epilogue{})
		default:
			xoff = ti * h4
		}
		clear(hp)
		c.product(wh.Frozen, hp, hd, whd, b, h, h4, gemm.Epilogue{})
		c.emitAll(specs[lstmProductKernels:])
		e.ParallelFor(b, rowGrain(h4), cellRows)
	}
	return out
}

// lstmCell advances one row of the LSTM state in place: xp is the row's
// input projection without its bias b, hp its recurrent projection [4H]
// (overwritten: it ends up holding the gates), cell and h its state [H].
// Every value is rounded where the composed step stores it — the Linear
// outputs, the gate sums, the four activations, both products of the
// cell update, the cell, tanh of the cell and h — and each pass is one
// tight loop, like the composed operators' own.
func lstmCell(xp, hp, b, cell, h []float32, f16 bool) {
	n := len(h)
	// The gate sums: the input projection plus its bias, plus the
	// recurrent projection — each Linear output re-stored through the
	// float16 grid at f16.
	if f16 {
		for j, x := range xp {
			hp[j] = precision.RoundF16(x+b[j]) + precision.RoundF16(hp[j])
		}
	} else {
		for j, x := range xp {
			hp[j] = (x + b[j]) + hp[j]
		}
	}
	i, f, g, o := hp[:n], hp[n:2*n], hp[2*n:3*n], hp[3*n:4*n]
	sigmoidSlice(i, i)
	sigmoidSlice(f, f)
	tanhSlice(g, g)
	sigmoidSlice(o, o)
	for j, c := range cell {
		cell[j] = float32(f[j]*c) + float32(i[j]*g[j])
	}
	tanhSlice(g, cell) // g is spent: it now holds tanh(c)
	for j, t := range g {
		h[j] = o[j] * t
	}
}
