package ops

import (
	"fmt"

	"mmbench/internal/engine"
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
// wh [H,4H], bias [4H] — and returns the final hidden state [B,H]: T
// steps of
//
//	gates = x_t·W_x + b + h·W_h
//	c     = σ(f)⊙c + σ(i)⊙tanh(g)
//	h     = σ(o)⊙tanh(c)
//
// with the kernel stream, the output bits and, under a tape, the
// gradients of those steps composed from Linear, Add, Slice, the
// activations and Mul (nn's test oracle).
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
// it has them) and one gate/cell pass per row (lstmCell). Both products
// store as Linear's do — the bias joins the input projection and f16
// re-stores each through the grid in the tile store — and the cell pass
// repeats the other composed operators' roundings one for one.
//
// Backward: a taped call keeps every step's activated gates, cell,
// tanh(cell) and h (7·T·B·H floats) for its tape step, lstmBackward.
func (c *Ctx) LSTMSequence(x, wx, wh, bias *Var) *Var {
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
	xd, wxd, whd := x.Value.Data(), wx.Value.Data(), wh.Value.Data()
	hd := out.Value.Data()
	i8 := c.prec == precision.I8
	ep := gemm.Epilogue{F16: c.prec == precision.F16}
	epx := ep
	epx.Bias = bias.Value.Data()
	// Step s's gates [B,4H] (its h·W_h, then the activated i, f, g, o),
	// cell, tanh(cell) and h [B,H] start at 4·s·span and s·span. Without a
	// tape span is 0, so every step reuses one set: h is out and tanh(cell)
	// overwrites the spent g. A taped call keeps all T for its backward.
	n, span := b*h, 0
	var gates, cells, tcs, hs []float32
	if out.NeedGrad {
		span = n
		keep := make([]float32, 7*t*n)
		gates, cells, tcs, hs = keep[:4*t*n], keep[4*t*n:5*t*n], keep[5*t*n:6*t*n], keep[6*t*n:]
	} else {
		gates, cells, hs = e.GetUninit(4*n), e.Get(n), hd // c_0 = 0
		defer e.Put(gates)
		defer e.Put(cells)
	}
	// xp holds input projections: step s's row bi starts at s·xstep +
	// bi·xstride — all B·T rows at f32 and f16, the step's b rows
	// (gathered from x_t in xt) at i8.
	var xp, xt []float32
	xstep, xstride := h4, t*h4
	if i8 {
		xp, xt = e.GetUninit(b*h4), e.GetUninit(b*d)
		xstep, xstride = 0, h4
		defer e.Put(xt)
	} else {
		xp = e.Get(b * t * h4)
	}
	defer e.Put(xp)
	var s int // the step whose cell pass runs
	cellRows := func(r0, r1 int) {
		h := h4 / 4
		for bi := r0; bi < r1; bi++ {
			g, st := gates[4*s*span+bi*h4:][:h4], s*span+bi*h
			tc := g[2*h : 3*h]
			if span > 0 {
				tc = tcs[st:][:h]
			}
			lstmCell(xp[s*xstep+bi*xstride:][:h4], g, cells[st:][:h], tc, hs[st:][:h])
		}
	}

	for ti := 0; ti < t; ti++ {
		s = ti
		c.emitAll(specs[:lstmProductKernels])
		switch {
		case i8:
			for bi := 0; bi < b; bi++ {
				copy(xt[bi*d:(bi+1)*d], xd[(bi*t+ti)*d:])
			}
			clear(xp)
			c.product(wx.Frozen, xp, xt, wxd, b, d, h4, epx)
		case ti == 0:
			c.product(wx.Frozen, xp, xd, wxd, b*t, d, h4, epx)
		}
		hprev := hs[:n] // h_0 = 0
		if ti > 0 {
			hprev = hs[(ti-1)*span:][:n]
			if span > 0 { // a kept step starts from the last step's cell
				copy(cells[ti*n:][:n], cells[(ti-1)*n:])
			}
		}
		g := gates[4*ti*span:][:4*n]
		clear(g)
		c.product(wh.Frozen, g, hprev, whd, b, h, h4, ep)
		c.emitAll(specs[lstmProductKernels:])
		e.ParallelFor(b, rowGrain(h4), cellRows)
	}
	if span > 0 {
		copy(hd, hs[(t-1)*n:])
		c.tapeStep(out, func() { lstmBackward(e, x, wx, wh, bias, out, gates, cells, tcs, hs) })
	}
	return out
}

// lstmCell advances one row of the LSTM state in place: xp is the row's
// input projection with its bias, g its recurrent projection [4H]
// (overwritten: it ends up holding the activated gates), cell and h its
// state [H], and tc receives tanh of the new cell (the spent g segment
// serves). Every value is rounded where the composed step stores it — the
// gate sums, the four activations, both products of the cell update, the
// cell, tanh of the cell and h; the explicit conversions keep the
// compiler from fusing a product into its sum — and each pass is one
// tight loop, like the composed operators' own.
func lstmCell(xp, g, cell, tc, h []float32) {
	n := len(h)
	for j, x := range xp {
		g[j] = x + g[j]
	}
	i, f, gg, o := g[:n], g[n:2*n], g[2*n:3*n], g[3*n:4*n]
	sigmoidSlice(i, i)
	sigmoidSlice(f, f)
	tanhSlice(gg, gg)
	sigmoidSlice(o, o)
	for j, c := range cell {
		cell[j] = float32(f[j]*c) + float32(i[j]*gg[j])
	}
	tanhSlice(tc, cell)
	for j, t := range tc {
		h[j] = o[j] * t
	}
}

// lstmBackward is a taped LSTMSequence's tape step: back-propagation
// through time over the steps the forward kept, from the last, with the
// composed steps' operations in their order and rounding. The weight
// gradients and the bias column sums accumulate one step at a time
// through Linear's own products and loop, the first step's product
// against the zero h_0 included, so each parameter sees the composed
// steps' sums in their order. A composed gradient starts fresh as 0 + v
// (EnsureGrad, then +=), which turns −0 into +0; the gate gradients keep
// that, as the bias sum would see a −0, and every other −0 the chain
// makes meets a product and then such a 0 + v before it is stored.
func lstmBackward(e *engine.Engine, x, wx, wh, bias, out *Var, gates, cells, tcs, hs []float32) {
	b, t, d := x.Value.Dim(0), x.Value.Dim(1), x.Value.Dim(2)
	h4 := wx.Value.Dim(1)
	h := h4 / 4
	n := b * h
	xd := x.Value.Data()
	dg := e.GetUninit(b * h4) // the step's gate pre-activation gradient
	dh := e.GetUninit(n)      // the step's h gradient
	dc := e.Get(n)            // the cell gradient from the step after
	zero := e.Get(n)          // h and c before the first step
	xt, dxt := e.GetUninit(b*d), e.GetUninit(b*d)
	for _, buf := range [][]float32{dg, dh, dc, zero, xt, dxt} {
		defer e.Put(buf)
	}
	copy(dh, out.Grad.Data())
	var s int // the step being differentiated
	cellRows := func(r0, r1 int) {
		cp := zero
		if s > 0 {
			cp = cells[(s-1)*n:]
		}
		for bi := r0; bi < r1; bi++ {
			g, dgr := gates[(s*b+bi)*h4:][:h4], dg[bi*h4:][:h4]
			for k, tc := range tcs[s*n+bi*h:][:h] {
				r := bi*h + k
				i, f, gg, o := g[k], g[h+k], g[2*h+k], g[3*h+k]
				dm := dc[r] + dh[r]*o*(1-tc*tc) // the new cell's gradient
				dc[r] = dm * f
				dgr[k] = 0 + dm*gg*(i*(1-i))
				dgr[h+k] = 0 + dm*cp[r]*(f*(1-f))
				dgr[2*h+k] = 0 + dm*i*(1-gg*gg)
				dgr[3*h+k] = 0 + dh[r]*tc*(o*(1-o))
			}
		}
	}
	var bg []float32
	if bias.NeedGrad {
		bg = bias.EnsureGrad().Data()
	}
	biasCols := func(j0, j1 int) {
		for j := j0; j < j1; j++ {
			for r := 0; r < b; r++ {
				bg[j] += dg[r*h4+j]
			}
		}
	}

	for s = t - 1; s >= 0; s-- {
		e.ParallelFor(b, rowGrain(h4), cellRows)
		hprev := zero
		if s > 0 {
			hprev = hs[(s-1)*n:][:n]
			clear(dh)
			matmulNT(e, dh, dg, wh.Value.Data(), b, h4, h, 1)
		}
		if wh.NeedGrad {
			matmulTN(e, wh.EnsureGrad().Data(), hprev, dg, b, h, h4, 1)
		}
		if x.NeedGrad {
			clear(dxt)
			matmulNT(e, dxt, dg, wx.Value.Data(), b, h4, d, 1)
			xg := x.EnsureGrad().Data()
			for bi := 0; bi < b; bi++ {
				row := xg[(bi*t+s)*d:][:d]
				for k, v := range dxt[bi*d:][:d] {
					row[k] += v
				}
			}
		}
		if wx.NeedGrad {
			for bi := 0; bi < b; bi++ {
				copy(xt[bi*d:(bi+1)*d], xd[(bi*t+s)*d:])
			}
			matmulTN(e, wx.EnsureGrad().Data(), xt, dg, b, d, h4, 1)
		}
		if bg != nil {
			e.ParallelFor(h4, rowGrain(b), biasCols)
		}
	}
}
