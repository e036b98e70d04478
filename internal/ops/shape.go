package ops

import (
	"fmt"

	"mmbench/internal/autograd"
	"mmbench/internal/kernels"
	"mmbench/internal/tensor"
)

// Reshape returns a view of x with a new shape (free: no kernel emitted).
func (c *Ctx) Reshape(x *Var, shape ...int) *Var {
	out := autograd.NewVar(x.Value.Reshape(shape...))
	if c.taping(x) {
		out.NeedGrad = true
		c.tapeStep(out, func() {
			x.EnsureGrad().AddScaled(out.Grad.Reshape(x.Value.Shape()...), 1)
		})
	}
	return out
}

// Flatten reshapes [N, ...] to [N, rest].
func (c *Ctx) Flatten(x *Var) *Var {
	n := x.Value.Dim(0)
	return c.Reshape(x, n, x.Value.Size()/n)
}

// axisStrides returns (outer, axisDim, inner) products for a shape/axis
// split, so an element index decomposes as (o*axisDim + a)*inner + i.
func axisStrides(shape []int, axis int) (outer, axisDim, inner int) {
	outer, inner = 1, 1
	for i := 0; i < axis; i++ {
		outer *= shape[i]
	}
	axisDim = shape[axis]
	for i := axis + 1; i < len(shape); i++ {
		inner *= shape[i]
	}
	return outer, axisDim, inner
}

// Concat concatenates inputs along the given axis. All other dimensions
// must match.
func (c *Ctx) Concat(axis int, vs ...*Var) *Var {
	if len(vs) == 0 {
		panic("ops: Concat of nothing")
	}
	if len(vs) == 1 {
		return vs[0]
	}
	base := vs[0].Value.Shape()
	if axis < 0 {
		axis += len(base)
	}
	total := 0
	for _, v := range vs {
		s := v.Value.Shape()
		if len(s) != len(base) {
			panic(fmt.Sprintf("ops: Concat rank mismatch %v vs %v", base, s))
		}
		for i := range s {
			if i != axis && s[i] != base[i] {
				panic(fmt.Sprintf("ops: Concat shape mismatch %v vs %v on axis %d", base, s, axis))
			}
		}
		total += s[axis]
	}
	outShape := make([]int, len(base))
	copy(outShape, base)
	outShape[axis] = total

	n := 1
	for _, d := range outShape {
		n *= d
	}
	c.emit(kernels.CopySpec("concat", n))

	out := c.outUninit(outShape, vs...)
	if out.Value.Abstract() {
		return out
	}

	outer, _, inner := axisStrides(outShape, axis)
	od := out.Value.Data()
	offset := 0
	type block struct {
		v          *Var
		start, dim int
	}
	blocks := make([]block, len(vs))
	for bi, v := range vs {
		d := v.Value.Dim(axis)
		blocks[bi] = block{v, offset, d}
		vd := v.Value.Data()
		for o := 0; o < outer; o++ {
			src := vd[o*d*inner : (o+1)*d*inner]
			dst := od[(o*total+offset)*inner : (o*total+offset+d)*inner]
			copy(dst, src)
		}
		offset += d
	}
	if c.taping(vs...) {
		c.tapeStep(out, func() {
			g := out.Grad.Data()
			for _, b := range blocks {
				if !b.v.NeedGrad {
					continue
				}
				vg := b.v.EnsureGrad().Data()
				for o := 0; o < outer; o++ {
					src := g[(o*total+b.start)*inner : (o*total+b.start+b.dim)*inner]
					dst := vg[o*b.dim*inner : (o+1)*b.dim*inner]
					for i := range src {
						dst[i] += src[i]
					}
				}
			}
		})
	}
	return out
}

// sliceSpec is the kernel Slice emits for an n-element result.
func sliceSpec(n int) kernels.Spec { return kernels.CopySpec("slice", n) }

// Slice extracts [start,end) along the given axis.
func (c *Ctx) Slice(x *Var, axis, start, end int) *Var {
	s := x.Value.Shape()
	if axis < 0 {
		axis += len(s)
	}
	if start < 0 || end > s[axis] || start >= end {
		panic(fmt.Sprintf("ops: Slice [%d,%d) of axis %d in shape %v", start, end, axis, s))
	}
	outShape := make([]int, len(s))
	copy(outShape, s)
	outShape[axis] = end - start

	n := 1
	for _, d := range outShape {
		n *= d
	}
	c.emit(sliceSpec(n))

	out := c.outUninit(outShape, x)
	if out.Value.Abstract() {
		return out
	}
	outer, dim, inner := axisStrides(s, axis)
	width := end - start
	xd, od := x.Value.Data(), out.Value.Data()
	for o := 0; o < outer; o++ {
		copy(od[o*width*inner:(o+1)*width*inner], xd[(o*dim+start)*inner:(o*dim+end)*inner])
	}
	if c.taping(x) {
		c.tapeStep(out, func() {
			g := out.Grad.Data()
			xg := x.EnsureGrad().Data()
			for o := 0; o < outer; o++ {
				src := g[o*width*inner : (o+1)*width*inner]
				dst := xg[(o*dim+start)*inner : (o*dim+end)*inner]
				for i := range src {
					dst[i] += src[i]
				}
			}
		})
	}
	return out
}

// Constant wraps a tensor that never requires gradients.
func Constant(t *tensor.Tensor) *Var { return autograd.NewVar(t) }

// Ones returns a concrete all-ones Var of the given shape, or an abstract
// one when abstract is true.
func Ones(abstract bool, shape ...int) *Var {
	if abstract {
		return autograd.NewVar(tensor.NewAbstract(shape...))
	}
	t := tensor.New(shape...)
	t.Fill(1)
	return autograd.NewVar(t)
}
