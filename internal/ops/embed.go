package ops

import (
	"fmt"

	"mmbench/internal/autograd"
	"mmbench/internal/kernels"
	"mmbench/internal/tensor"
)

// Embedding gathers rows of table [V,D] for the token ids of one batch,
// producing [B,T,D]. ids is row-major [B][T].
func (c *Ctx) Embedding(table *Var, ids [][]int) *Var {
	assertRank(table, 2, "Embedding")
	v, d := table.Value.Dim(0), table.Value.Dim(1)
	b := len(ids)
	if b == 0 {
		panic("ops: Embedding with empty batch")
	}
	t := len(ids[0])
	c.emit(kernels.EmbeddingSpec("embedding", b*t, d))
	out := c.outUninit([]int{b, t, d}, table)
	if out.Value.Abstract() {
		return out
	}
	e := c.engine()
	td, od := table.Value.Data(), out.Value.Data()
	for _, row := range ids {
		if len(row) != t {
			panic("ops: Embedding ragged id batch")
		}
		for _, id := range row {
			if id < 0 || id >= v {
				panic(fmt.Sprintf("ops: Embedding id %d outside vocabulary %d", id, v))
			}
		}
	}
	e.ParallelFor(b, rowGrain(t*d), func(b0, b1 int) {
		for bi := b0; bi < b1; bi++ {
			for ti, id := range ids[bi] {
				copy(od[(bi*t+ti)*d:(bi*t+ti+1)*d], td[id*d:(id+1)*d])
			}
		}
	})
	if c.taping(table) {
		c.tapeStep(out, func() {
			// Scatter-add: the same vocabulary row can appear in many
			// batch positions, so the accumulation stays on the
			// coordinating goroutine (fixed order, no write races).
			g := out.Grad.Data()
			tg := table.EnsureGrad().Data()
			for bi, row := range ids {
				for ti, id := range row {
					src := g[(bi*t+ti)*d : (bi*t+ti+1)*d]
					dst := tg[id*d : (id+1)*d]
					for i := range src {
						dst[i] += src[i]
					}
				}
			}
		})
	}
	return out
}

// OuterFusion computes the tensor-fusion outer product of the paper's
// Table 1: z_b = vec([1; x_b] ⊗ [1; y_b]) for each batch row, producing
// [B, (Dx+1)·(Dy+1)].
func (c *Ctx) OuterFusion(x, y *Var) *Var {
	assertRank(x, 2, "OuterFusion")
	assertRank(y, 2, "OuterFusion")
	b := x.Value.Dim(0)
	if y.Value.Dim(0) != b {
		panic(fmt.Sprintf("ops: OuterFusion batch %d vs %d", b, y.Value.Dim(0)))
	}
	dx, dy := x.Value.Dim(1), y.Value.Dim(1)
	px, py := dx+1, dy+1
	c.emit(kernels.GemmSpec(fmt.Sprintf("outer_fusion_%dx%d", px, py), b*px, 1, py))
	out := c.outUninit([]int{b, px * py}, x, y)
	if out.Value.Abstract() {
		return out
	}
	e := c.engine()
	xd, yd, od := x.Value.Data(), y.Value.Data(), out.Value.Data()
	xv := func(bi, i int) float32 {
		if i == 0 {
			return 1
		}
		return xd[bi*dx+i-1]
	}
	yv := func(bi, j int) float32 {
		if j == 0 {
			return 1
		}
		return yd[bi*dy+j-1]
	}
	e.ParallelFor(b, rowGrain(px*py), func(b0, b1 int) {
		for bi := b0; bi < b1; bi++ {
			for i := 0; i < px; i++ {
				for j := 0; j < py; j++ {
					od[bi*px*py+i*py+j] = xv(bi, i) * yv(bi, j)
				}
			}
		}
	})
	if c.taping(x, y) {
		c.tapeStep(out, func() {
			g := out.Grad.Data()
			var xg, yg []float32
			if x.NeedGrad {
				xg = x.EnsureGrad().Data()
			}
			if y.NeedGrad {
				yg = y.EnsureGrad().Data()
			}
			e.ParallelFor(b, rowGrain(px*py), func(b0, b1 int) {
				for bi := b0; bi < b1; bi++ {
					for i := 0; i < px; i++ {
						for j := 0; j < py; j++ {
							gv := g[bi*px*py+i*py+j]
							if gv == 0 {
								continue
							}
							if xg != nil && i > 0 {
								xg[bi*dx+i-1] += gv * yv(bi, j)
							}
							if yg != nil && j > 0 {
								yg[bi*dy+j-1] += gv * xv(bi, i)
							}
						}
					}
				}
			})
		})
	}
	return out
}

// EmbeddingShape is the analytic-mode counterpart of Embedding: it emits
// the gather kernel for a [B,T] id batch and returns an abstract [B,T,D]
// output without touching the table data.
func (c *Ctx) EmbeddingShape(table *Var, b, t int) *Var {
	assertRank(table, 2, "EmbeddingShape")
	d := table.Value.Dim(1)
	c.emit(kernels.EmbeddingSpec("embedding", b*t, d))
	return autograd.NewVar(tensor.NewAbstract(b, t, d))
}
