package ops

import (
	"mmbench/internal/kernels"
)

// MeanAll reduces a tensor to its scalar mean.
func (c *Ctx) MeanAll(x *Var) *Var {
	n := x.Value.Size()
	c.emit(kernels.ReduceSpec("mean_all", n, 1))
	out := c.out([]int{1}, x)
	if out.Value.Abstract() {
		return out
	}
	out.Value.Set(float32(x.Value.Sum()/float64(n)), 0)
	if c.taping(x) {
		c.tapeStep(out, func() {
			g := out.Grad.At(0) / float32(n)
			xg := x.EnsureGrad().Data()
			for i := range xg {
				xg[i] += g
			}
		})
	}
	return out
}

// MeanAxis1 reduces [B,T,D] to [B,D] by averaging over the middle (token)
// axis — the standard sequence-pooling reduction.
func (c *Ctx) MeanAxis1(x *Var) *Var {
	assertRank(x, 3, "MeanAxis1")
	b, t, d := x.Value.Dim(0), x.Value.Dim(1), x.Value.Dim(2)
	c.emit(kernels.ReduceSpec("mean_tokens", b*t*d, b*d))
	out := c.out([]int{b, d}, x)
	if out.Value.Abstract() {
		return out
	}
	e := c.engine()
	xd, od := x.Value.Data(), out.Value.Data()
	inv := 1 / float32(t)
	e.ParallelFor(b, rowGrain(t*d), func(b0, b1 int) {
		for bi := b0; bi < b1; bi++ {
			for ti := 0; ti < t; ti++ {
				row := xd[(bi*t+ti)*d : (bi*t+ti+1)*d]
				orow := od[bi*d : (bi+1)*d]
				for j := range row {
					orow[j] += row[j] * inv
				}
			}
		}
	})
	if c.taping(x) {
		c.tapeStep(out, func() {
			g := out.Grad.Data()
			xg := x.EnsureGrad().Data()
			e.ParallelFor(b, rowGrain(t*d), func(b0, b1 int) {
				for bi := b0; bi < b1; bi++ {
					grow := g[bi*d : (bi+1)*d]
					for ti := 0; ti < t; ti++ {
						xrow := xg[(bi*t+ti)*d : (bi*t+ti+1)*d]
						for j := range grow {
							xrow[j] += grow[j] * inv
						}
					}
				}
			})
		})
	}
	return out
}
