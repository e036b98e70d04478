package ops

import (
	"fmt"
	"math"

	"mmbench/internal/kernels"
)

// LayerNorm normalizes over the last dimension and applies the affine
// transform gamma, beta (both shaped [lastDim]). Rows are independent,
// so forward and the x-gradient partition over rows; the gamma/beta
// gradients are column sums and partition over the feature dimension,
// keeping every accumulation order fixed regardless of worker count.
// Taped or not, the forward runs one row loop. A tape keeps two floats per
// row, and the backward rebuilds the normalized rows from x with the
// forward's own float32 expression, (x − mean)·invStd.
func (c *Ctx) LayerNorm(x, gamma, beta *Var, eps float32) *Var {
	xs := x.Value.Shape()
	d := xs[len(xs)-1]
	if gamma.Value.Size() != d || beta.Value.Size() != d {
		panic(fmt.Sprintf("ops: LayerNorm affine size %d/%d for feature dim %d", gamma.Value.Size(), beta.Value.Size(), d))
	}
	rows := x.Value.Size() / d
	c.emit(kernels.BNormSpec("layer_norm", rows*d))
	out := c.outUninit(xs, x, gamma, beta)
	if out.Value.Abstract() {
		return out
	}

	e := c.engine()
	taping := c.taping(x, gamma, beta)
	xd, od := x.Value.Data(), out.Value.Data()
	gd, bd := gamma.Value.Data(), beta.Value.Data()
	// stats[2r] and stats[2r+1] are row r's mean and inverse stddev.
	var stats []float32
	if taping {
		stats = make([]float32, 2*rows)
	}
	e.ParallelFor(rows, rowGrain(d), func(r0, r1 int) {
		gd, bd := gd[:d], bd[:d]
		for r := r0; r < r1; r++ {
			row, orow := xd[r*d:][:d], od[r*d:][:d]
			var mean float64
			for _, v := range row {
				mean += float64(v)
			}
			mean /= float64(d)
			var varSum float64
			for _, v := range row {
				dv := float64(v) - mean
				varSum += dv * dv
			}
			is := float32(1 / math.Sqrt(varSum/float64(d)+float64(eps)))
			mf := float32(mean)
			for j, v := range row {
				xh := (v - mf) * is
				orow[j] = xh*gd[j] + bd[j]
			}
			if stats != nil {
				stats[2*r], stats[2*r+1] = mf, is
			}
		}
	})

	if taping {
		c.tapeStep(out, func() {
			g := out.Grad.Data()
			if x.NeedGrad {
				xg := x.EnsureGrad().Data()
				e.ParallelFor(rows, rowGrain(d), func(r0, r1 int) {
					for r := r0; r < r1; r++ {
						mf, is := stats[2*r], stats[2*r+1]
						row, grow, xgrow := xd[r*d:][:d], g[r*d:][:d], xg[r*d:][:d]
						// Means of gamma·g and gamma·g·xhat over the row.
						var m1, m2 float64
						for j, v := range row {
							gj := float64(grow[j]) * float64(gd[j])
							m1 += gj
							m2 += gj * float64((v-mf)*is)
						}
						m1 /= float64(d)
						m2 /= float64(d)
						for j, v := range row {
							gj := float64(grow[j]) * float64(gd[j])
							xgrow[j] += float32((gj - m1 - float64((v-mf)*is)*m2)) * is
						}
					}
				})
			}
			if gamma.NeedGrad || beta.NeedGrad {
				var gg, bg []float32
				if gamma.NeedGrad {
					gg = gamma.EnsureGrad().Data()
				}
				if beta.NeedGrad {
					bg = beta.EnsureGrad().Data()
				}
				e.ParallelFor(d, rowGrain(rows), func(j0, j1 int) {
					for j := j0; j < j1; j++ {
						for r := 0; r < rows; r++ {
							idx := r*d + j
							if gg != nil {
								gg[j] += g[idx] * ((xd[idx] - stats[2*r]) * stats[2*r+1])
							}
							if bg != nil {
								bg[j] += g[idx]
							}
						}
					}
				})
			}
		})
	}
	return out
}

// BatchNorm2D normalizes [N,C,H,W] per channel using batch statistics and
// applies the affine transform gamma, beta (both [C]). Channels are
// independent, so the engine partitions over C.
//
// BatchNorm2D supports forward and analytic execution only; MMBench's
// trainable workload variants use normalization-free encoders or LayerNorm,
// while BatchNorm appears in the paper-scale profiling variants (VGG,
// ResNet, U-Net). Attaching a tape to a graph containing BatchNorm2D
// panics.
func (c *Ctx) BatchNorm2D(x, gamma, beta *Var, eps float32) *Var {
	assertRank(x, 4, "BatchNorm2D")
	n, ch, h, w := x.Value.Dim(0), x.Value.Dim(1), x.Value.Dim(2), x.Value.Dim(3)
	if gamma.Value.Size() != ch || beta.Value.Size() != ch {
		panic(fmt.Sprintf("ops: BatchNorm2D affine size %d/%d for %d channels", gamma.Value.Size(), beta.Value.Size(), ch))
	}
	c.emit(kernels.BNormSpec("batch_norm2d", n*ch*h*w))
	if c.taping(x, gamma, beta) {
		panic("ops: BatchNorm2D does not support backward; use LayerNorm or norm-free encoders in trainable variants")
	}
	out := c.outUninit([]int{n, ch, h, w}, x, gamma, beta)
	if out.Value.Abstract() {
		return out
	}
	e := c.engine()
	plane := h * w
	xd, od := x.Value.Data(), out.Value.Data()
	gd, bd := gamma.Value.Data(), beta.Value.Data()
	// Batch statistics are the definitional cross-request state: each
	// request segment normalizes with its own mean/variance, exactly as
	// the request would compute standalone. Each chunk takes the spans
	// itself, so a lone request's one span never leaves its stack.
	e.ParallelFor(ch, rowGrain(n*plane), func(c0, c1 int) {
		for _, s := range c.segments(n) {
			for ci := c0; ci < c1; ci++ {
				bnChannel(xd, od, gd, bd, ci, ch, plane, s.lo, s.hi, eps)
			}
		}
	})
	return out
}

// bnChannel normalizes one channel of the samples in [nlo, nhi) using
// that span's batch statistics.
func bnChannel(xd, od, gd, bd []float32, ci, ch, plane, nlo, nhi int, eps float32) {
	var mean float64
	for ni := nlo; ni < nhi; ni++ {
		base := (ni*ch + ci) * plane
		for i := 0; i < plane; i++ {
			mean += float64(xd[base+i])
		}
	}
	count := float64((nhi - nlo) * plane)
	mean /= count
	var varSum float64
	for ni := nlo; ni < nhi; ni++ {
		base := (ni*ch + ci) * plane
		for i := 0; i < plane; i++ {
			dv := float64(xd[base+i]) - mean
			varSum += dv * dv
		}
	}
	invStd := float32(1 / math.Sqrt(varSum/count+float64(eps)))
	for ni := nlo; ni < nhi; ni++ {
		base := (ni*ch + ci) * plane
		for i := 0; i < plane; i++ {
			od[base+i] = (xd[base+i]-float32(mean))*invStd*gd[ci] + bd[ci]
		}
	}
}
