package ops

import (
	"fmt"
	"math"

	"mmbench/internal/engine"
	"mmbench/internal/gemm"
	"mmbench/internal/kernels"
	"mmbench/internal/precision"
)

// convOut returns the output spatial size for one dimension. A window
// the padded input cannot hold has no output pixel at any stride.
func convOut(in, kernel, stride, pad int) int {
	if in+2*pad < kernel {
		panic(fmt.Sprintf("ops: convolution window %d exceeds the padded input for in=%d s=%d p=%d", kernel, in, stride, pad))
	}
	return (in+2*pad-kernel)/stride + 1
}

// Conv2D applies a 2-D convolution. x is [N,C,H,W]; w is [OutC,C,KH,KW];
// bias is [OutC] and may be nil. The forward is an implicit GEMM on the
// compute engine (gemm.ConvF32/F16/I8): the weights are packed once per
// call and every (sample, block of output pixels) work unit gathers its
// image patches straight into GEMM panels in pooled scratch it returns
// before it ends — no [C·KH·KW, OH·OW] column matrix is ever stored. The
// bias joins each element in the GEMM tile store (gemm.Epilogue.RowBias),
// which writes every output element once. The backward runs on the same
// panels and micro-kernels (gemm.ConvGradF32): dX is col2im(Wᵀ·dY) and dW
// is dY·Pᵀ, block by block, in float32 over the full-precision x and w at
// every precision, bitwise the same at any worker count; the bias
// gradient is a sum over the output gradient.
func (c *Ctx) Conv2D(x, w, bias *Var, stride, pad int) *Var {
	return c.conv2D(x, w, bias, stride, pad, false)
}

// Conv2DReLU is ReLU(Conv2D(x, w, bias, stride, pad)) as one operator: the
// tile store applies the ReLU as it writes each element (after the f16
// rounding), so the output is written once and never re-read. It emits
// the same kernel specs in the same order as the composition, and its
// output and gradients have the composition's bits: the backward masks
// the output gradient by out > 0, which holds exactly where the
// convolution's output is > 0, as ReLU's does.
func (c *Ctx) Conv2DReLU(x, w, bias *Var, stride, pad int) *Var {
	return c.conv2D(x, w, bias, stride, pad, true)
}

func (c *Ctx) conv2D(x, w, bias *Var, stride, pad int, relu bool) *Var {
	assertRank(x, 4, "Conv2D")
	assertRank(w, 4, "Conv2D weight")
	n, ch, h, wd := x.Value.Dim(0), x.Value.Dim(1), x.Value.Dim(2), x.Value.Dim(3)
	outC, wc, kh, kw := w.Value.Dim(0), w.Value.Dim(1), w.Value.Dim(2), w.Value.Dim(3)
	if wc != ch {
		panic(fmt.Sprintf("ops: Conv2D input channels %d != weight channels %d", ch, wc))
	}
	oh := convOut(h, kh, stride, pad)
	ow := convOut(wd, kw, stride, pad)

	// The specs after the product's are emitted once the output is
	// stored, so a profiler charges the fused store to the conv2d span.
	c.emitP(kernels.Conv2DSpec(fmt.Sprintf("conv2d_%dx%d_c%d_o%d", kh, kw, ch, outC), n, ch, oh, ow, outC, kh, kw))
	size := n * outC * oh * ow
	emitTail := func() {
		if bias != nil {
			c.emit(kernels.ElewiseSpec("conv_bias", size, 2, 1))
		}
		if relu {
			c.emit(kernels.ReluSpec("relu", size))
		}
	}

	inputs := []*Var{x, w}
	if bias != nil {
		inputs = append(inputs, bias)
	}
	// With a bias the tile store writes bias + product without reading
	// the output; without one it accumulates into a zeroed output.
	out := c.result([]int{n, outC, oh, ow}, bias == nil, inputs)
	if out.Value.Abstract() {
		emitTail()
		return out
	}

	e := c.engine()
	xd, wdta, od := x.Value.Data(), w.Value.Data(), out.Value.Data()
	ep := gemm.Epilogue{ReLU: relu}
	if bias != nil {
		ep.RowBias = bias.Value.Data()
	}
	g := gemm.ConvShape{C: ch, H: h, W: wd, KH: kh, KW: kw, Stride: stride, Pad: pad, OH: oh, OW: ow}
	// Reduced-precision operands quantize as they are packed — no level
	// copies, int32 accumulation for i8. The weight scale is per-tensor
	// over W and batch-independent; each sample's activation scale is
	// calibrated over the whole input or, in a merged cross-request batch,
	// over the sample's own request segment. (Patch entries are copies of
	// input entries plus zero padding, so the input's maxabs bounds them.)
	switch prec := c.prec; prec {
	case precision.I8:
		e.CountLowp(prec)
		wScale := precision.I8Scale(precision.MaxAbs(wdta))
		xScales := make([]float32, n)
		for _, s := range c.i8Segments(n) {
			sc := precision.I8Scale(precision.MaxAbs(xd[s.lo*ch*h*wd : s.hi*ch*h*wd]))
			for ni := s.lo; ni < s.hi; ni++ {
				xScales[ni] = sc
			}
		}
		gemm.ConvI8(e, od, wdta, xd, n, outC, g, wScale, xScales, ep)
	case precision.F16:
		e.CountLowp(prec)
		gemm.ConvF16(e, od, wdta, xd, n, outC, g, ep)
	default:
		gemm.ConvF32(e, od, wdta, xd, n, outC, g, ep)
	}
	emitTail()

	if c.taping(inputs...) {
		c.tapeStep(out, func() {
			dy := out.Grad.Data()
			if relu {
				dy = reluBackward(e, dy, od)
			}
			var dx, dw []float32
			if x.NeedGrad {
				dx = x.EnsureGrad().Data()
			}
			if w.NeedGrad {
				dw = w.EnsureGrad().Data()
			}
			gemm.ConvGradF32(e, dx, dw, wdta, xd, dy, n, outC, g)
			if bias != nil && bias.NeedGrad {
				// Disjoint per output channel, summed in (ni, pixel) order.
				bg := bias.EnsureGrad().Data()
				e.ParallelFor(outC, 1, func(c0, c1 int) {
					for oc := c0; oc < c1; oc++ {
						for ni := 0; ni < n; ni++ {
							base := ((ni*outC + oc) * oh) * ow
							for i := 0; i < oh*ow; i++ {
								bg[oc] += dy[base+i]
							}
						}
					}
				})
			}
		})
	}
	return out
}

// reluBackward returns the gradient a ReLU whose output is y passes to
// its input for the output gradient g, in a fresh slice: what ReLU's
// backward accumulates into the zeroed gradient of a value nothing else
// reads, bit for bit.
func reluBackward(e *engine.Engine, g, y []float32) []float32 {
	gx := make([]float32, len(g))
	e.ParallelFor(len(g), elemGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			gx[i] += g[i] * reluGrad(y[i], 0)
		}
	})
	return gx
}

// MaxPool2D applies max pooling with a square window and stride equal to
// the window size, computing each output once (poolMaxRow), taped or not.
func (c *Ctx) MaxPool2D(x *Var, window int) *Var {
	assertRank(x, 4, "MaxPool2D")
	n, ch, h, w := x.Value.Dim(0), x.Value.Dim(1), x.Value.Dim(2), x.Value.Dim(3)
	oh, ow := h/window, w/window
	if oh == 0 || ow == 0 {
		panic(fmt.Sprintf("ops: MaxPool2D window %d too large for %dx%d", window, h, w))
	}
	c.emit(kernels.PoolingSpec(fmt.Sprintf("maxpool_%d", window), n*ch*oh*ow, window))
	out := c.outUninit([]int{n, ch, oh, ow}, x)
	if out.Value.Abstract() {
		return out
	}
	e := c.engine()
	xd, od := x.Value.Data(), out.Value.Data()
	e.ParallelFor(n*ch, rowGrain(oh*ow), func(nc0, nc1 int) {
		for nc := nc0; nc < nc1; nc++ {
			for oy := 0; oy < oh; oy++ {
				poolMaxRow(od[(nc*oh+oy)*ow:][:ow], xd[(nc*h+oy*window)*w:][:(window-1)*w+ow*window], w, window)
			}
		}
	})
	if c.taping(x) {
		// The tape keeps nothing. Its step rescans each window as poolMaxRow
		// does, from −Inf under x > best, with the index starting at the
		// window's first element (PyTorch's convention), so a window of −Inf
		// and NaN alone keeps its gradient.
		c.tapeStep(out, func() {
			g, xg := out.Grad.Data(), x.EnsureGrad().Data()
			for nc := 0; nc < n*ch; nc++ {
				for oy := 0; oy < oh; oy++ {
					for ox := 0; ox < ow; ox++ {
						first := (nc*h+oy*window)*w + ox*window
						best, at := float32(math.Inf(-1)), first
						for i := first; i < first+window*w; i += w {
							for j := i; j < i+window; j++ {
								if xd[j] > best {
									best, at = xd[j], j
								}
							}
						}
						xg[at] += g[(nc*oh+oy)*ow+ox]
					}
				}
			}
		})
	}
	return out
}

// poolMaxRow computes a row of max-pool outputs from win, the window rows
// of the input (w elements apart): orow[ox] is the maximum of columns
// [ox·window, (ox+1)·window) of each, taken in row-major order by
// maxStep. A 2×2 window — every model's — is unrolled, which
// keeps the running maximum and the loop in registers.
func poolMaxRow(orow, win []float32, w, window int) {
	negInf := math.Float32bits(float32(math.Inf(-1)))
	if window == 2 {
		r0, r1 := win[:2*len(orow)], win[w:][:2*len(orow)]
		for ox := range orow {
			best := maxStep(negInf, r0[2*ox])
			best = maxStep(best, r0[2*ox+1])
			best = maxStep(best, r1[2*ox])
			best = maxStep(best, r1[2*ox+1])
			orow[ox] = math.Float32frombits(best)
		}
		return
	}
	for ox := range orow {
		best := negInf
		for i := ox * window; i < len(win); i += w {
			for _, v := range win[i : i+window] {
				best = maxStep(best, v)
			}
		}
		orow[ox] = math.Float32frombits(best)
	}
}

// maxStep is one step of the max-pool: the running maximum is carried as
// bits and replaced under the tape step's own test, v > best, which the
// compiler turns into a conditional move — no branch on the data, and
// the first of equal maxima (so a −0/+0 tie keeps its order), NaNs
// skipped, −Inf for a window of −Inf and NaN.
func maxStep(best uint32, v float32) uint32 {
	if vb := math.Float32bits(v); v > math.Float32frombits(best) {
		best = vb
	}
	return best
}

// AvgPool2D applies average pooling with a square window and stride equal
// to the window size.
func (c *Ctx) AvgPool2D(x *Var, window int) *Var {
	assertRank(x, 4, "AvgPool2D")
	n, ch, h, w := x.Value.Dim(0), x.Value.Dim(1), x.Value.Dim(2), x.Value.Dim(3)
	oh, ow := h/window, w/window
	if oh == 0 || ow == 0 {
		panic(fmt.Sprintf("ops: AvgPool2D window %d too large for %dx%d", window, h, w))
	}
	c.emit(kernels.PoolingSpec(fmt.Sprintf("avgpool_%d", window), n*ch*oh*ow, window))
	out := c.outUninit([]int{n, ch, oh, ow}, x)
	if out.Value.Abstract() {
		return out
	}
	e := c.engine()
	inv := 1 / float32(window*window)
	xd, od := x.Value.Data(), out.Value.Data()
	e.ParallelFor(n*ch, rowGrain(oh*ow), func(nc0, nc1 int) {
		for nc := nc0; nc < nc1; nc++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					var sum float32
					for ky := 0; ky < window; ky++ {
						for kx := 0; kx < window; kx++ {
							sum += xd[(nc*h+oy*window+ky)*w+ox*window+kx]
						}
					}
					od[(nc*oh+oy)*ow+ox] = sum * inv
				}
			}
		}
	})
	if c.taping(x) {
		c.tapeStep(out, func() {
			g := out.Grad.Data()
			xg := x.EnsureGrad().Data()
			e.ParallelFor(n*ch, rowGrain(oh*ow), func(nc0, nc1 int) {
				for nc := nc0; nc < nc1; nc++ {
					for oy := 0; oy < oh; oy++ {
						for ox := 0; ox < ow; ox++ {
							gv := g[(nc*oh+oy)*ow+ox] * inv
							for ky := 0; ky < window; ky++ {
								for kx := 0; kx < window; kx++ {
									xg[(nc*h+oy*window+ky)*w+ox*window+kx] += gv
								}
							}
						}
					}
				}
			})
		})
	}
	return out
}

// GlobalAvgPool2D reduces [N,C,H,W] to [N,C] by averaging each channel's
// spatial plane. It lowers to a Reduce-class kernel (the paper's Figure 9
// hotspot analysis tracks this kernel across stages).
func (c *Ctx) GlobalAvgPool2D(x *Var) *Var {
	assertRank(x, 4, "GlobalAvgPool2D")
	n, ch, h, w := x.Value.Dim(0), x.Value.Dim(1), x.Value.Dim(2), x.Value.Dim(3)
	c.emit(kernels.ReduceSpec("global_avg_pool", n*ch*h*w, n*ch))
	out := c.outUninit([]int{n, ch}, x)
	if out.Value.Abstract() {
		return out
	}
	e := c.engine()
	plane := h * w
	inv := 1 / float32(plane)
	xd, od := x.Value.Data(), out.Value.Data()
	e.ParallelFor(n*ch, rowGrain(plane), func(nc0, nc1 int) {
		for nc := nc0; nc < nc1; nc++ {
			var sum float32
			for i := 0; i < plane; i++ {
				sum += xd[nc*plane+i]
			}
			od[nc] = sum * inv
		}
	})
	if c.taping(x) {
		c.tapeStep(out, func() {
			g := out.Grad.Data()
			xg := x.EnsureGrad().Data()
			e.ParallelFor(n*ch, rowGrain(plane), func(nc0, nc1 int) {
				for nc := nc0; nc < nc1; nc++ {
					gv := g[nc] * inv
					for i := 0; i < plane; i++ {
						xg[nc*plane+i] += gv
					}
				}
			})
		})
	}
	return out
}

// Upsample2D doubles the spatial resolution of [N,C,H,W] by nearest-
// neighbour interpolation (used by the U-Net decoder).
func (c *Ctx) Upsample2D(x *Var) *Var {
	assertRank(x, 4, "Upsample2D")
	n, ch, h, w := x.Value.Dim(0), x.Value.Dim(1), x.Value.Dim(2), x.Value.Dim(3)
	c.emit(kernels.CopySpec("upsample2x", n*ch*h*w*4))
	out := c.outUninit([]int{n, ch, 2 * h, 2 * w}, x)
	if out.Value.Abstract() {
		return out
	}
	e := c.engine()
	xd, od := x.Value.Data(), out.Value.Data()
	e.ParallelFor(n*ch, rowGrain(4*h*w), func(nc0, nc1 int) {
		for nc := nc0; nc < nc1; nc++ {
			for y := 0; y < 2*h; y++ {
				for xx := 0; xx < 2*w; xx++ {
					od[(nc*2*h+y)*2*w+xx] = xd[(nc*h+y/2)*w+xx/2]
				}
			}
		}
	})
	if c.taping(x) {
		c.tapeStep(out, func() {
			g := out.Grad.Data()
			xg := x.EnsureGrad().Data()
			e.ParallelFor(n*ch, rowGrain(4*h*w), func(nc0, nc1 int) {
				for nc := nc0; nc < nc1; nc++ {
					for y := 0; y < 2*h; y++ {
						for xx := 0; xx < 2*w; xx++ {
							xg[(nc*h+y/2)*w+xx/2] += g[(nc*2*h+y)*2*w+xx]
						}
					}
				}
			})
		})
	}
	return out
}
