package ops

import (
	"fmt"
	"math"

	"mmbench/internal/kernels"
	"mmbench/internal/tensor"
)

func assertSameShape(a, b *Var, op string) {
	if !tensor.SameShape(a.Value, b.Value) {
		panic(fmt.Sprintf("ops: %s shape mismatch %v vs %v", op, a.Value.Shape(), b.Value.Shape()))
	}
}

// Add returns a + b element-wise (identical shapes).
func (c *Ctx) Add(a, b *Var) *Var {
	assertSameShape(a, b, "Add")
	n := a.Value.Size()
	c.emit(kernels.ElewiseSpec("add", n, 2, 1))
	out := c.out(a.Value.Shape(), a, b)
	if out.Value.Abstract() {
		return out
	}
	e := c.engine()
	ad, bd, od := a.Value.Data(), b.Value.Data(), out.Value.Data()
	e.ParallelFor(n, elemGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			od[i] = ad[i] + bd[i]
		}
	})
	if c.taping(a, b) {
		c.tapeStep(out, func() {
			if a.NeedGrad {
				a.EnsureGrad().AddScaled(out.Grad, 1)
			}
			if b.NeedGrad {
				b.EnsureGrad().AddScaled(out.Grad, 1)
			}
		})
	}
	return out
}

// Mul returns a ⊙ b element-wise (identical shapes).
func (c *Ctx) Mul(a, b *Var) *Var {
	assertSameShape(a, b, "Mul")
	n := a.Value.Size()
	c.emit(kernels.ElewiseSpec("mul", n, 2, 1))
	out := c.out(a.Value.Shape(), a, b)
	if out.Value.Abstract() {
		return out
	}
	e := c.engine()
	ad, bd, od := a.Value.Data(), b.Value.Data(), out.Value.Data()
	e.ParallelFor(n, elemGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			od[i] = ad[i] * bd[i]
		}
	})
	if c.taping(a, b) {
		c.tapeStep(out, func() {
			g := out.Grad.Data()
			if a.NeedGrad {
				ag := a.EnsureGrad().Data()
				e.ParallelFor(n, elemGrain, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						ag[i] += g[i] * bd[i]
					}
				})
			}
			if b.NeedGrad {
				bg := b.EnsureGrad().Data()
				e.ParallelFor(n, elemGrain, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						bg[i] += g[i] * ad[i]
					}
				})
			}
		})
	}
	return out
}

// Scale returns a * alpha.
func (c *Ctx) Scale(a *Var, alpha float32) *Var {
	n := a.Value.Size()
	c.emit(kernels.ElewiseSpec("scale", n, 1, 1))
	out := c.out(a.Value.Shape(), a)
	if out.Value.Abstract() {
		return out
	}
	e := c.engine()
	ad, od := a.Value.Data(), out.Value.Data()
	e.ParallelFor(n, elemGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			od[i] = ad[i] * alpha
		}
	})
	if c.taping(a) {
		c.tapeStep(out, func() {
			a.EnsureGrad().AddScaled(out.Grad, alpha)
		})
	}
	return out
}

// unary applies an element-wise activation: fwd is a slice kernel run once
// per engine chunk (dst and src have equal length), df its derivative in
// terms of input x and output y.
func (c *Ctx) unary(a *Var, spec kernels.Spec, fwd func(dst, src []float32), df func(x, y float32) float32) *Var {
	c.emit(spec)
	out := c.out(a.Value.Shape(), a)
	if out.Value.Abstract() {
		return out
	}
	e := c.engine()
	n := a.Value.Size()
	ad, od := a.Value.Data(), out.Value.Data()
	e.ParallelFor(n, elemGrain, func(lo, hi int) {
		fwd(od[lo:hi], ad[lo:hi])
	})
	if c.taping(a) {
		c.tapeStep(out, func() {
			g := out.Grad.Data()
			ag := a.EnsureGrad().Data()
			e.ParallelFor(n, elemGrain, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					ag[i] += g[i] * df(ad[i], od[i])
				}
			})
		})
	}
	return out
}

// Activation kernels. Each forward is a loop over a float32 slice with no
// call per element, no float64 and no branch on the data: signs are read
// and restored as bits, range limits are min, and every transcendental is
// one expf32 (whose underflow flush is the only conditional left, false
// for every argument short of the function's saturation edge). Against the
// float64 functions they replace the absolute error is ≤ 2.5e-7 for tanh
// and sigmoid and ≤ 1e-6·max(1,|x|) for GELU; near zero that absolute
// bound is all tanh promises (tanh of a subnormal is ±0). tanh is exactly
// odd and −0 keeps its sign through tanh and GELU. At the ends: tanh(±Inf)
// = ±1, sigmoid(+Inf) = 1, and sigmoid bottoms out at 1/(1+e^87) ≈ 1.6e-38
// for every x ≤ −87 (−Inf included) where float64 went on through the
// subnormals to 0 — so GELU(−Inf) is −Inf, not the formula's 0·∞. NaN
// gives NaN, except in ReLU, a pure sign test, where a NaN with the sign
// bit set is negative.
const signBit = 1 << 31

// sigmoidOf returns 1/(1+e^(−x)). e^(−x) overflows float32 just past
// x = −88, so −x is held at 87; the quotient keeps its relative accuracy
// in both tails (nothing is subtracted from 1).
func sigmoidOf(x float32) float32 {
	return 1 / (1 + expf32(min(-x, 87)))
}

// geluArg returns z(x) = 2·√(2/π)·(x + 0.044715·x³), the argument whose
// sigmoid is GELU's gate: 0.5·(1 + tanh(z/2)) = 1/(1+e^(−z)). z has x's
// sign and overflows to ±Inf, never to NaN.
func geluArg(x float32) float32 {
	const k2 = 2 * 0.7978845608028654
	return x * (k2 + k2*0.044715*x*x)
}

func reluSlice(dst, src []float32) {
	dst = dst[:len(src)]
	for i, x := range src {
		// x with every bit cleared when its sign bit is set: max(x, 0).
		b := math.Float32bits(x)
		dst[i] = math.Float32frombits(b &^ uint32(int32(b)>>31))
	}
}

func sigmoidSlice(dst, src []float32) {
	dst = dst[:len(src)]
	for i, x := range src {
		dst[i] = sigmoidOf(x)
	}
}

// tanhSlice computes tanh(x) = sign(x)·(1−e)/(1+e) with e = e^(−2|x|):
// the quotient lies in [0, 1] and x's sign bit is copied onto it.
func tanhSlice(dst, src []float32) {
	dst = dst[:len(src)]
	for i, x := range src {
		b := math.Float32bits(x)
		e := expf32(-2 * math.Float32frombits(b&^signBit))
		dst[i] = math.Float32frombits(math.Float32bits((1-e)/(1+e)) | b&signBit)
	}
}

func geluSlice(dst, src []float32) {
	dst = dst[:len(src)]
	for i, x := range src {
		dst[i] = x * sigmoidOf(geluArg(x))
	}
}

// ReLU applies max(0, x).
func (c *Ctx) ReLU(a *Var) *Var {
	return c.unary(a, kernels.ReluSpec("relu", a.Value.Size()), reluSlice,
		func(x, _ float32) float32 {
			if x > 0 {
				return 1
			}
			return 0
		})
}

// Sigmoid applies 1/(1+e^-x).
func (c *Ctx) Sigmoid(a *Var) *Var {
	spec := kernels.ElewiseSpec("sigmoid", a.Value.Size(), 1, 4)
	return c.unary(a, spec, sigmoidSlice,
		func(_, y float32) float32 { return y * (1 - y) })
}

// Tanh applies the hyperbolic tangent.
func (c *Ctx) Tanh(a *Var) *Var {
	spec := kernels.ElewiseSpec("tanh", a.Value.Size(), 1, 4)
	return c.unary(a, spec, tanhSlice,
		func(_, y float32) float32 { return 1 - y*y })
}

// GELU applies the tanh-approximated Gaussian error linear unit,
// 0.5·x·(1 + tanh(√(2/π)·(x + 0.044715·x³))), evaluated as x·s with the
// gate s = sigmoidOf(geluArg(x)) — the same function, without the
// cancellation of 1 + tanh in the negative tail. The derivative
// s + x·s·(1−s)·z′(x) is built from the same gate, so forward and
// backward agree by construction.
func (c *Ctx) GELU(a *Var) *Var {
	spec := kernels.ElewiseSpec("gelu", a.Value.Size(), 1, 8)
	spec.Class = kernels.Relu // the paper buckets activations under Relu
	return c.unary(a, spec, geluSlice,
		func(x, _ float32) float32 {
			const k2 = 2 * 0.7978845608028654
			s := sigmoidOf(geluArg(x))
			return s + x*s*(1-s)*(k2+3*k2*0.044715*x*x)
		})
}

// Dropout zeroes each element with probability p during training and
// rescales survivors by 1/(1-p). In inference mode it is the identity.
//
// All RNG draws happen on the coordinating goroutine before any parallel
// work, so the mask — and therefore the output — is a pure function of
// the RNG state, identical at any engine worker count.
func (c *Ctx) Dropout(a *Var, p float32) *Var {
	if !c.Training || p <= 0 {
		return a
	}
	if c.RNG == nil {
		panic("ops: Dropout in training mode requires Ctx.RNG")
	}
	n := a.Value.Size()
	c.emit(kernels.ElewiseSpec("dropout", n, 2, 1))
	out := c.out(a.Value.Shape(), a)
	if out.Value.Abstract() {
		return out
	}
	e := c.engine()
	// The mask is captured by the backward closure, so it is allocated
	// normally rather than pooled.
	mask := make([]float32, n)
	scale := 1 / (1 - p)
	for i := range mask {
		if c.RNG.Float32() >= p {
			mask[i] = scale
		}
	}
	ad, od := a.Value.Data(), out.Value.Data()
	e.ParallelFor(n, elemGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			od[i] = ad[i] * mask[i]
		}
	})
	if c.taping(a) {
		c.tapeStep(out, func() {
			g := out.Grad.Data()
			ag := a.EnsureGrad().Data()
			e.ParallelFor(n, elemGrain, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					ag[i] += g[i] * mask[i]
				}
			})
		})
	}
	return out
}

// AddRows adds p [T,D] to every batch slice of x [B,T,D] (positional
// embedding addition).
func (c *Ctx) AddRows(x, p *Var) *Var {
	assertRank(x, 3, "AddRows")
	assertRank(p, 2, "AddRows pos")
	b, t, d := x.Value.Dim(0), x.Value.Dim(1), x.Value.Dim(2)
	if p.Value.Dim(0) != t || p.Value.Dim(1) != d {
		panic(fmt.Sprintf("ops: AddRows pos %v for input %v", p.Value.Shape(), x.Value.Shape()))
	}
	c.emit(kernels.ElewiseSpec("add_rows", b*t*d, 2, 1))
	out := c.out([]int{b, t, d}, x, p)
	if out.Value.Abstract() {
		return out
	}
	e := c.engine()
	xd, pd, od := x.Value.Data(), p.Value.Data(), out.Value.Data()
	e.ParallelFor(b, rowGrain(t*d), func(b0, b1 int) {
		for bi := b0; bi < b1; bi++ {
			row := xd[bi*t*d : (bi+1)*t*d]
			orow := od[bi*t*d : (bi+1)*t*d]
			for i := range row {
				orow[i] = row[i] + pd[i]
			}
		}
	})
	if c.taping(x, p) {
		c.tapeStep(out, func() {
			g := out.Grad.Data()
			if x.NeedGrad {
				x.EnsureGrad().AddScaled(out.Grad, 1)
			}
			if p.NeedGrad {
				// Sums across the batch dimension: partition over [T,D]
				// positions so each accumulates its own batch sum in
				// fixed order.
				pg := p.EnsureGrad().Data()
				e.ParallelFor(t*d, elemGrain, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						for bi := 0; bi < b; bi++ {
							pg[i] += g[bi*t*d+i]
						}
					}
				})
			}
		})
	}
	return out
}
