package ops

import (
	"fmt"
	"math"

	"mmbench/internal/gemm"
	"mmbench/internal/kernels"
	"mmbench/internal/precision"
)

// convOut returns the output spatial size for one dimension.
func convOut(in, kernel, stride, pad int) int {
	out := (in+2*pad-kernel)/stride + 1
	if out <= 0 {
		panic(fmt.Sprintf("ops: convolution output size %d for in=%d k=%d s=%d p=%d", out, in, kernel, stride, pad))
	}
	return out
}

// Conv2D applies a 2-D convolution. x is [N,C,H,W]; w is [OutC,C,KH,KW];
// bias is [OutC] and may be nil. The forward is an implicit GEMM on the
// compute engine (gemm.ConvF32/F16/I8): the weights are packed once per
// call and every (sample, block of output pixels) work unit gathers its
// image patches straight into GEMM panels in pooled scratch it returns
// before it ends — no [C·KH·KW, OH·OW] column matrix is ever stored. The
// backward is direct loops over the full-precision inputs.
func (c *Ctx) Conv2D(x, w, bias *Var, stride, pad int) *Var {
	assertRank(x, 4, "Conv2D")
	assertRank(w, 4, "Conv2D weight")
	n, ch, h, wd := x.Value.Dim(0), x.Value.Dim(1), x.Value.Dim(2), x.Value.Dim(3)
	outC, wc, kh, kw := w.Value.Dim(0), w.Value.Dim(1), w.Value.Dim(2), w.Value.Dim(3)
	if wc != ch {
		panic(fmt.Sprintf("ops: Conv2D input channels %d != weight channels %d", ch, wc))
	}
	oh := convOut(h, kh, stride, pad)
	ow := convOut(wd, kw, stride, pad)

	c.emitP(kernels.Conv2DSpec(fmt.Sprintf("conv2d_%dx%d_c%d_o%d", kh, kw, ch, outC), n, ch, oh, ow, outC, kh, kw))
	if bias != nil {
		c.emit(kernels.ElewiseSpec("conv_bias", n*outC*oh*ow, 2, 1))
	}

	inputs := []*Var{x, w}
	if bias != nil {
		inputs = append(inputs, bias)
	}
	out := c.out([]int{n, outC, oh, ow}, inputs...)
	if out.Value.Abstract() {
		return out
	}

	e := c.engine()
	xd, wdta, od := x.Value.Data(), w.Value.Data(), out.Value.Data()
	m := oh * ow
	g := gemm.ConvShape{C: ch, H: h, W: wd, KH: kh, KW: kw, Stride: stride, Pad: pad, OH: oh, OW: ow}
	// Reduced-precision operands quantize as they are packed — no level
	// copies, int32 accumulation for i8. The weight scale is per-tensor
	// over W and batch-independent; each sample's activation scale is
	// calibrated over the whole input or, in a merged cross-request batch,
	// over the sample's own request segment. (Patch entries are copies of
	// input entries plus zero padding, so the input's maxabs bounds them.)
	switch prec := c.prec; prec {
	case precision.I8:
		countLowp(prec)
		wScale := precision.I8Scale(precision.MaxAbs(wdta))
		xScales := make([]float32, n)
		c.eachI8Segment(n, func(lo, hi int) {
			sc := precision.I8Scale(precision.MaxAbs(xd[lo*ch*h*wd : hi*ch*h*wd]))
			for ni := lo; ni < hi; ni++ {
				xScales[ni] = sc
			}
		})
		gemm.ConvI8(e, od, wdta, xd, n, outC, g, wScale, xScales)
	case precision.F16:
		countLowp(prec)
		gemm.ConvF16(e, od, wdta, xd, n, outC, g)
	default:
		gemm.ConvF32(e, od, wdta, xd, n, outC, g)
	}
	if bias != nil {
		bd := bias.Value.Data()
		e.ParallelFor(n*outC, rowGrain(m), func(r0, r1 int) {
			for r := r0; r < r1; r++ {
				b := bd[r%outC]
				row := od[r*m : (r+1)*m]
				for i := range row {
					row[i] += b
				}
			}
		})
	}
	if c.prec == precision.F16 {
		// Output feature maps are stored at f16 (the bias joined in the
		// f32 accumulator).
		roundSliceF16(e, od)
	}

	if c.taping(inputs...) {
		c.tapeStep(out, func() {
			g := out.Grad.Data()
			if x.NeedGrad {
				// Input gradients are disjoint per sample.
				xg := x.EnsureGrad().Data()
				e.ParallelFor(n, 1, func(n0, n1 int) {
					for ni := n0; ni < n1; ni++ {
						for oc := 0; oc < outC; oc++ {
							for oy := 0; oy < oh; oy++ {
								for ox := 0; ox < ow; ox++ {
									gv := g[((ni*outC+oc)*oh+oy)*ow+ox]
									if gv == 0 {
										continue
									}
									for ci := 0; ci < ch; ci++ {
										for ky := 0; ky < kh; ky++ {
											iy := oy*stride + ky - pad
											if iy < 0 || iy >= h {
												continue
											}
											for kx := 0; kx < kw; kx++ {
												ix := ox*stride + kx - pad
												if ix < 0 || ix >= wd {
													continue
												}
												xg[(ni*ch+ci)*h*wd+iy*wd+ix] += gv * wdta[((oc*ch+ci)*kh+ky)*kw+kx]
											}
										}
									}
								}
							}
						}
					}
				})
			}
			if w.NeedGrad {
				// Weight (and bias) gradients are disjoint per output
				// channel; the (ni,oy,ox) accumulation order per element
				// matches the serial kernel.
				wg := w.EnsureGrad().Data()
				var bg []float32
				if bias != nil && bias.NeedGrad {
					bg = bias.EnsureGrad().Data()
				}
				e.ParallelFor(outC, 1, func(c0, c1 int) {
					for oc := c0; oc < c1; oc++ {
						for ni := 0; ni < n; ni++ {
							for oy := 0; oy < oh; oy++ {
								for ox := 0; ox < ow; ox++ {
									gv := g[((ni*outC+oc)*oh+oy)*ow+ox]
									if gv == 0 {
										continue
									}
									for ci := 0; ci < ch; ci++ {
										for ky := 0; ky < kh; ky++ {
											iy := oy*stride + ky - pad
											if iy < 0 || iy >= h {
												continue
											}
											for kx := 0; kx < kw; kx++ {
												ix := ox*stride + kx - pad
												if ix < 0 || ix >= wd {
													continue
												}
												wg[((oc*ch+ci)*kh+ky)*kw+kx] += gv * xd[(ni*ch+ci)*h*wd+iy*wd+ix]
											}
										}
									}
								}
							}
						}
						if bg != nil {
							for ni := 0; ni < n; ni++ {
								base := ((ni*outC + oc) * oh) * ow
								for i := 0; i < oh*ow; i++ {
									bg[oc] += g[base+i]
								}
							}
						}
					}
				})
			} else if bias != nil && bias.NeedGrad {
				bg := bias.EnsureGrad().Data()
				e.ParallelFor(outC, 1, func(c0, c1 int) {
					for oc := c0; oc < c1; oc++ {
						for ni := 0; ni < n; ni++ {
							base := ((ni*outC + oc) * oh) * ow
							for i := 0; i < oh*ow; i++ {
								bg[oc] += g[base+i]
							}
						}
					}
				})
			}
		})
	}
	return out
}

// MaxPool2D applies max pooling with a square window and stride equal to
// the window size.
func (c *Ctx) MaxPool2D(x *Var, window int) *Var {
	assertRank(x, 4, "MaxPool2D")
	n, ch, h, w := x.Value.Dim(0), x.Value.Dim(1), x.Value.Dim(2), x.Value.Dim(3)
	oh, ow := h/window, w/window
	if oh == 0 || ow == 0 {
		panic(fmt.Sprintf("ops: MaxPool2D window %d too large for %dx%d", window, h, w))
	}
	c.emit(kernels.PoolingSpec(fmt.Sprintf("maxpool_%d", window), n*ch*oh*ow, window))
	out := c.out([]int{n, ch, oh, ow}, x)
	if out.Value.Abstract() {
		return out
	}
	e := c.engine()
	xd, od := x.Value.Data(), out.Value.Data()
	if !c.taping(x) {
		// Nothing will ask where a maximum came from: skip the argmax and
		// fold one input row at a time into the output row.
		e.ParallelFor(n*ch, rowGrain(oh*ow), func(nc0, nc1 int) {
			for nc := nc0; nc < nc1; nc++ {
				for oy := 0; oy < oh; oy++ {
					orow := od[(nc*oh+oy)*ow : (nc*oh+oy+1)*ow]
					for i := range orow {
						orow[i] = float32(math.Inf(-1))
					}
					for ky := 0; ky < window; ky++ {
						maxPoolRow(orow, xd[(nc*h+oy*window+ky)*w:], window)
					}
				}
			}
		})
		return out
	}
	argmax := make([]int32, len(od))
	e.ParallelFor(n*ch, rowGrain(oh*ow), func(nc0, nc1 int) {
		for nc := nc0; nc < nc1; nc++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					best := float32(math.Inf(-1))
					bestIdx := 0
					for ky := 0; ky < window; ky++ {
						for kx := 0; kx < window; kx++ {
							idx := (nc*h+oy*window+ky)*w + ox*window + kx
							if xd[idx] > best {
								best = xd[idx]
								bestIdx = idx
							}
						}
					}
					o := (nc*oh+oy)*ow + ox
					od[o] = best
					argmax[o] = int32(bestIdx)
				}
			}
		}
	})
	c.tapeStep(out, func() {
		g := out.Grad.Data()
		xg := x.EnsureGrad().Data()
		for i, idx := range argmax {
			xg[idx] += g[i]
		}
	})
	return out
}

// maxPoolRow folds one input row into a pooled output row: orow[ox]
// becomes the maximum of itself and the window columns
// row[ox·window : (ox+1)·window]. The running maximum is carried as bits
// and replaced under the taped loop's own test, x > best, which the
// compiler turns into a conditional move — no branch on the data, and the
// taped loop's result for every input: first of equal maxima (so a −0/+0
// tie keeps its order), NaNs skipped.
func maxPoolRow(orow, row []float32, window int) {
	for ox := range orow {
		best := math.Float32bits(orow[ox])
		for _, x := range row[ox*window : (ox+1)*window] {
			if xb := math.Float32bits(x); x > math.Float32frombits(best) {
				best = xb
			}
		}
		orow[ox] = math.Float32frombits(best)
	}
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
	out := c.out([]int{n, ch, oh, ow}, x)
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
	out := c.out([]int{n, ch}, x)
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
	out := c.out([]int{n, ch, 2 * h, 2 * w}, x)
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
