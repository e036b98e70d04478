package ops

import (
	"fmt"

	"mmbench/internal/engine"
	"mmbench/internal/gemm"
	"mmbench/internal/kernels"
	"mmbench/internal/precision"
)

// Every product in this package is one call into the packed-panel core
// (internal/gemm): a forward product at the active precision through
// Ctx.product, a gradient in f32 through the two helpers below, which
// only map the operand layouts of the NT and TN gradients onto gemm.F32's
// (m, k, n, aT, bT) convention. The core zero-pads every tile to a full
// MR×NR block and accumulates each dst element over the whole K in one
// micro-kernel call, so a row's result is independent of the worker count
// and of how many other rows share the call.

// matmulNT computes dst[m,k] += alpha · a[m,n] · b[k,n]ᵀ: b is the
// [N,K]-stored right operand of an m×n×k product. Alpha is applied once
// per finished dot product — the scale-after-accumulate order a separate
// Scale pass would produce.
func matmulNT(e *engine.Engine, dst, a, b []float32, m, n, k int, alpha float32) {
	gemm.F32(e, dst, a, b, m, n, k, alpha, false, true)
}

// matmulTN computes dst[k,n] += alpha · a[m,k]ᵀ · b[m,n]: a is the
// [K,M]-stored left operand of a k×m×n product.
func matmulTN(e *engine.Engine, dst, a, b []float32, m, k, n int, alpha float32) {
	gemm.F32(e, dst, a, b, k, m, n, alpha, true, false)
}

// MatMul multiplies a[m,k] by b[k,n] at the active precision: Linear's
// product without a bias or kept panels (out starts zeroed, so an f16
// element is RoundF16(0 + acc), rounded in the tile store).
func (c *Ctx) MatMul(a, b *Var) *Var {
	assertRank(a, 2, "MatMul")
	assertRank(b, 2, "MatMul")
	m, k := a.Value.Dim(0), a.Value.Dim(1)
	k2, n := b.Value.Dim(0), b.Value.Dim(1)
	if k != k2 {
		panic(fmt.Sprintf("ops: MatMul inner dims %d != %d", k, k2))
	}
	c.emitP(kernels.GemmSpec(fmt.Sprintf("gemm_%dx%dx%d", m, k, n), m, k, n))
	out := c.out([]int{m, n}, a, b)
	if out.Value.Abstract() {
		return out
	}
	e := c.engine()
	c.product(nil, out.Value.Data(), a.Value.Data(), b.Value.Data(), m, k, n, gemm.Epilogue{F16: c.prec == precision.F16})
	if c.taping(a, b) {
		c.tapeStep(out, func() {
			g := out.Grad.Data()
			if a.NeedGrad {
				matmulNT(e, a.EnsureGrad().Data(), g, b.Value.Data(), m, n, k, 1)
			}
			if b.NeedGrad {
				matmulTN(e, b.EnsureGrad().Data(), a.Value.Data(), g, m, k, n, 1)
			}
		})
	}
	return out
}

// linearSpecs returns the ns kernels Linear emits for a rows×in×out
// product, in order: the GEMM at the active precision and, when there is
// a bias, the bias add.
func (c *Ctx) linearSpecs(rows, in, out int, bias bool) (specs [2]kernels.Spec, ns int) {
	specs[0] = c.atPrec(kernels.GemmSpec(fmt.Sprintf("linear_%dx%dx%d", rows, in, out), rows, in, out))
	if !bias {
		return specs, 1
	}
	specs[1] = kernels.ElewiseSpec("bias_add", rows*out, 2, 1)
	return specs, 2
}

// product computes dst[rows,n] += a[rows,k]·w[k,n] at the active
// precision, followed by the store epilogue ep, against kept's panels
// (nil packs per call). At i8 the activation scale calibrates per request
// segment and w's scale per tensor.
func (c *Ctx) product(kept *gemm.PackedB, dst, a, w []float32, rows, k, n int, ep gemm.Epilogue) {
	e := c.engine()
	switch p := c.prec; p {
	case precision.F16:
		e.CountLowp(p)
		kept.F16(e, dst, a, w, rows, k, n, 1, false, false, ep)
	case precision.I8:
		e.CountLowp(p)
		sw := kept.I8Scale(w)
		for _, s := range c.i8Segments(rows) {
			as := a[s.lo*k : s.hi*k]
			sx := precision.I8Scale(precision.MaxAbs(as))
			kept.I8(e, dst[s.lo*n:s.hi*n], as, w, s.hi-s.lo, k, n, 1, sx, sw, false, false, ep)
		}
	default:
		kept.F32(e, dst, a, w, rows, k, n, 1, false, false, ep)
	}
}

// Linear applies x·W + bias. x may be rank 2 [batch, in] or rank 3
// [batch, time, in] (flattened internally); W is [in, out]; bias is [out]
// and may be nil.
//
// Linear is the one product whose B operand is a weight. When the weight
// belongs to a frozen store network (w.Frozen) and no tape is attached,
// the product runs against the panels the weight keeps — packed once per
// precision by the routine the per-call path runs, so the bits are the
// same — and at i8 against its kept scale. Any other weight (a private
// workloads.Build network: training, Run, Place) packs per call.
func (c *Ctx) Linear(x, w, bias *Var) *Var {
	assertRank(w, 2, "Linear")
	in, outDim := w.Value.Dim(0), w.Value.Dim(1)
	xs := x.Value.Shape()
	if xs[len(xs)-1] != in {
		panic(fmt.Sprintf("ops: Linear input %v incompatible with weight %v", xs, w.Value.Shape()))
	}
	rows := x.Value.Size() / in

	// The bias add is fused into the product's tile store, so it is
	// emitted once the output is stored and a profiler charges the
	// product to the linear span, as conv2D does.
	specs, ns := c.linearSpecs(rows, in, outDim, bias != nil)
	c.emit(specs[0])

	outShape := make([]int, len(xs))
	copy(outShape, xs)
	outShape[len(outShape)-1] = outDim
	inputs := []*Var{x, w}
	if bias != nil {
		inputs = append(inputs, bias)
	}
	// The tile store overwrites every element (in ≥ 1: a tensor has no
	// empty dimension), so the result skips the zero fill.
	out := c.outUninit(outShape, inputs...)
	if out.Value.Abstract() {
		c.emitAll(specs[1:ns])
		return out
	}

	e := c.engine()
	od, xd, wd := out.Value.Data(), x.Value.Data(), w.Value.Data()
	// Weights and activations are stored at the stage precision, quantized
	// inside the panel packing; the bias joins in the wide accumulator
	// (for f16 the sum is re-stored through the grid exactly once, after
	// the bias, like Conv2D; for i8 the dequantized output stays f32 —
	// both the usual hardware arrangement). Both happen in the product's
	// tile store (gemm.Epilogue), which overwrites out without reading
	// it: each element is RoundF16((0 + acc) + bias[j]), the bits of a
	// zeroed out accumulated into, then a bias pass and a rounding pass. A row's product does not depend on
	// how many rows share the call, so a merged cross-request batch runs
	// one GEMM; only the i8 activation scale is a per-tensor, hence
	// cross-request, statistic and calibrates per request segment. The
	// weight scale is per-tensor over W and batch-independent.
	var kept *gemm.PackedB // nil packs per call
	if c.Tape == nil {
		kept = w.Frozen
	}
	ep := gemm.Epilogue{Overwrite: true, F16: c.prec == precision.F16}
	if bias != nil {
		ep.Bias = bias.Value.Data()
	}
	c.product(kept, od, xd, wd, rows, in, outDim, ep)
	c.emitAll(specs[1:ns])
	if c.taping(inputs...) {
		c.tapeStep(out, func() {
			g := out.Grad.Data()
			if x.NeedGrad {
				// Backward runs in f32 and dX is row-local, so a merged
				// batch needs no segmentation here. dW and db are merged-
				// batch reductions — parameter grads are inherently
				// cross-request sums.
				matmulNT(e, x.EnsureGrad().Data(), g, wd, rows, outDim, in, 1)
			}
			if w.NeedGrad {
				matmulTN(e, w.EnsureGrad().Data(), xd, g, rows, in, outDim, 1)
			}
			if bias != nil && bias.NeedGrad {
				// Column sum across every row: partition over columns so
				// each bg[j] accumulates its rows in fixed ascending
				// order (same pattern as LayerNorm's gamma/beta grads).
				bg := bias.EnsureGrad().Data()
				e.ParallelFor(outDim, rowGrain(rows), func(j0, j1 int) {
					for j := j0; j < j1; j++ {
						for r := 0; r < rows; r++ {
							bg[j] += g[r*outDim+j]
						}
					}
				})
			}
		})
	}
	return out
}
