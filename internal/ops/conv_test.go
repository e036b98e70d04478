package ops

import (
	"fmt"
	"math"
	"testing"

	"mmbench/internal/autograd"
	"mmbench/internal/engine"
	"mmbench/internal/gemm"
	"mmbench/internal/precision"
	"mmbench/internal/tensor"
)

// im2col expands one sample xd [C,H,W] into col [C·KH·KW, OH·OW] — the
// column matrix Conv2D's forward stored and handed to gemm.F32/F16/I8
// before it became an implicit GEMM. It lives on here as the oracle of
// TestConv2DMatchesIm2colComposition, the way internal/attnref keeps
// attention's.
func im2col(col, xd []float32, ch, h, w, kh, kw, oh, ow, stride, pad int) {
	m := oh * ow
	for ci := 0; ci < ch; ci++ {
		for ky := 0; ky < kh; ky++ {
			for kx := 0; kx < kw; kx++ {
				crow := col[((ci*kh+ky)*kw+kx)*m : ((ci*kh+ky)*kw+kx+1)*m]
				for oy := 0; oy < oh; oy++ {
					iy := oy*stride + ky - pad
					dst := crow[oy*ow : (oy+1)*ow]
					if iy < 0 || iy >= h {
						for i := range dst {
							dst[i] = 0
						}
						continue
					}
					src := xd[(ci*h+iy)*w : (ci*h+iy+1)*w]
					for ox := range dst {
						ix := ox*stride + kx - pad
						if ix < 0 || ix >= w {
							dst[ox] = 0
						} else {
							dst[ox] = src[ix]
						}
					}
				}
			}
		}
	}
}

// im2colConv2D is the forward Conv2D ran before: per sample, the stored
// column matrix times the weights through the per-call GEMM entry points,
// the i8 scales calibrated over the weights and over the whole input, the
// f16 output re-stored through the grid.
func im2colConv2D(e *engine.Engine, prec precision.Type, x, w *Var, stride, pad int) []float32 {
	n, ch, h, wd := x.Value.Dim(0), x.Value.Dim(1), x.Value.Dim(2), x.Value.Dim(3)
	outC, kh, kw := w.Value.Dim(0), w.Value.Dim(2), w.Value.Dim(3)
	oh, ow := convOut(h, kh, stride, pad), convOut(wd, kw, stride, pad)
	kDim, m := ch*kh*kw, oh*ow
	xd, wdta := x.Value.Data(), w.Value.Data()
	out := make([]float32, n*outC*m)
	col := make([]float32, kDim*m)
	for ni := 0; ni < n; ni++ {
		im2col(col, xd[ni*ch*h*wd:(ni+1)*ch*h*wd], ch, h, wd, kh, kw, oh, ow, stride, pad)
		oslice := out[ni*outC*m : (ni+1)*outC*m]
		switch prec {
		case precision.I8:
			sw, sx := precision.I8Scale(precision.MaxAbs(wdta)), precision.I8Scale(precision.MaxAbs(xd))
			gemm.I8(e, oslice, wdta, col, outC, kDim, m, 1, sw, sx, false, false)
		case precision.F16:
			gemm.F16(e, oslice, wdta, col, outC, kDim, m, 1, false, false)
		default:
			gemm.F32(e, oslice, wdta, col, outC, kDim, m, 1, false, false)
		}
	}
	if prec == precision.F16 {
		precision.RoundF16Slice(out, out)
	}
	return out
}

// directConv2D is the convolution's definition in float64, with each
// term(x, w) in place of the product x·w.
func directConv2D(x, w *Var, stride, pad int, term func(x, w float64) float64) []float64 {
	n, ch, h, wd := x.Value.Dim(0), x.Value.Dim(1), x.Value.Dim(2), x.Value.Dim(3)
	outC, kh, kw := w.Value.Dim(0), w.Value.Dim(2), w.Value.Dim(3)
	oh, ow := convOut(h, kh, stride, pad), convOut(wd, kw, stride, pad)
	xd, wdta := x.Value.Data(), w.Value.Data()
	out := make([]float64, n*outC*oh*ow)
	for ni := 0; ni < n; ni++ {
		for oc := 0; oc < outC; oc++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					var sum float64
					for ci := 0; ci < ch; ci++ {
						for ky := 0; ky < kh; ky++ {
							for kx := 0; kx < kw; kx++ {
								iy, ix := oy*stride+ky-pad, ox*stride+kx-pad
								if iy < 0 || iy >= h || ix < 0 || ix >= wd {
									continue
								}
								sum += term(float64(xd[((ni*ch+ci)*h+iy)*wd+ix]), float64(wdta[((oc*ch+ci)*kh+ky)*kw+kx]))
							}
						}
					}
					out[((ni*outC+oc)*oh+oy)*ow+ox] = sum
				}
			}
		}
	}
	return out
}

// directConv2DGrad is the convolution's backward by its definition, in
// float64: the two direct loop nests Conv2D's tape step ran before its
// gradients became products on the GEMM core, accumulating in float64. dy
// is the output gradient the convolution itself sees (for Conv2DReLU,
// already masked by out > 0); it returns the x and w gradients, or with
// abs their sums of |term|.
func directConv2DGrad(x, w *Var, dy []float32, stride, pad int, abs bool) (dx, dw []float64) {
	term := func(a, b float64) float64 {
		if abs {
			return math.Abs(a * b)
		}
		return a * b
	}
	n, ch, h, wd := x.Value.Dim(0), x.Value.Dim(1), x.Value.Dim(2), x.Value.Dim(3)
	outC, kh, kw := w.Value.Dim(0), w.Value.Dim(2), w.Value.Dim(3)
	oh, ow := convOut(h, kh, stride, pad), convOut(wd, kw, stride, pad)
	xd, wdta := x.Value.Data(), w.Value.Data()
	dx, dw = make([]float64, len(xd)), make([]float64, len(wdta))
	for ni := 0; ni < n; ni++ {
		for oc := 0; oc < outC; oc++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					gv := float64(dy[((ni*outC+oc)*oh+oy)*ow+ox])
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
								dx[(ni*ch+ci)*h*wd+iy*wd+ix] += term(gv, float64(wdta[((oc*ch+ci)*kh+ky)*kw+kx]))
								dw[((oc*ch+ci)*kh+ky)*kw+kx] += term(gv, float64(xd[(ni*ch+ci)*h*wd+iy*wd+ix]))
							}
						}
					}
				}
			}
		}
	}
	return dx, dw
}

// convCase is one forward shape: input [n,c,h,w], outC filters of kh×kw.
type convCase struct{ n, c, h, w, outC, kh, kw, stride, pad int }

func (s convCase) String() string {
	return fmt.Sprintf("%dx%dx%dx%d_o%d_k%dx%d_s%d_p%d", s.n, s.c, s.h, s.w, s.outC, s.kh, s.kw, s.stride, s.pad)
}

// convGrid crosses every window (kernel × stride × pad) with output planes
// of 15, 16 and 17 pixels — one B panel ± 1 — and 127, 128 and 129 — one
// eight-panel block ± 1 — as single rows, planes narrower than a panel and
// planes wider than one, so panels start, end and wrap at every position of
// an output row. Input sizes are the smallest that give the plane (the
// wider side gets the stride's full remainder, so H ≠ W and the floor in
// the output size is exercised) and come out odd more often than not.
// Windows the padded image cannot hold are skipped. Three deep-K shapes
// follow, whose blocks are 7, 3 and 1 panels.
func convGrid() (cases []convCase) {
	planes := [][2]int{{3, 5}, {2, 8}, {1, 17}, {1, 127}, {8, 16}, {3, 43}}
	for _, k := range []int{1, 3, 4, 5, 7} {
		for _, stride := range []int{1, 2, 3} {
			for _, pad := range []int{0, 1, 2, 3} {
				for i, p := range planes {
					h := (p[0]-1)*stride + k - 2*pad
					w := (p[1]-1)*stride + k - 2*pad + stride - 1
					if h < 1 || w < 1 {
						continue
					}
					cases = append(cases, convCase{n: 1 + i%2, c: 1 + (i+k)%3, h: h, w: w, kh: k, kw: k, stride: stride, pad: pad})
				}
			}
		}
	}
	return append(cases,
		convCase{n: 1, c: 64, h: 7, w: 17, kh: 3, kw: 3, stride: 1, pad: 1},  // K 576: 7-panel blocks, 119 pixels
		convCase{n: 1, c: 24, h: 5, w: 11, kh: 7, kw: 7, stride: 1, pad: 3},  // K 1176: 3-panel blocks, 55 pixels
		convCase{n: 2, c: 456, h: 3, w: 11, kh: 3, kw: 3, stride: 1, pad: 1}, // K 4104: 1-panel blocks, 33 pixels
	)
}

// f32SumBound is the bound on a float32 sum of products against its
// float64 value, relative to the sum of |term|: that sum, not the result
// nor the largest output, is what rounding error scales with where terms
// cancel.
const f32SumBound = 1e-5

// convTermError bounds how far one term x·w of a Conv2D at prec lies from
// the exact product because its operands were rounded: at f16 each by at
// most half an ulp (|v|·2⁻¹¹, or 2⁻²⁵ among the subnormals), at i8 by at
// most half a level of its tensor's scale (sx for x, sw for w). At f32 the
// operands are exact.
func convTermError(prec precision.Type, sx, sw float64) func(x, w float64) float64 {
	switch prec {
	case precision.F16:
		half := func(v float64) float64 { return math.Max(math.Abs(v)*0x1p-11, 0x1p-25) }
		return func(x, w float64) float64 {
			dx, dw := half(x), half(w)
			return math.Abs(x)*dw + math.Abs(w)*dx + dx*dw
		}
	case precision.I8:
		return func(x, w float64) float64 { return math.Abs(x)*sw/2 + math.Abs(w)*sx/2 + sx*sw/4 }
	}
	return func(x, w float64) float64 { return 0 }
}

// checkConv2D is the differential check of the implicit-GEMM forward at
// one shape, on data drawn from g, at each of precs: bitwise equal to the
// im2col + gemm.F32/F16/I8 composition it replaced on every engine
// (engines[0] runs the oracle), every pooled buffer returned; within its
// documented error of the float64 convolution, element by element (the
// operands' rounding, convTermError, summed over the output's terms,
// f32SumBound of its sum of |term|, and at f16 half an ulp of the stored
// output); and, with and without a bias, bitwise equal for a request
// alone and as the middle member of a three-request segmented batch on
// engines[1], whose neighbours are 5× and 0.2× its magnitude (at i8 each
// member's activation scale is its own segment's).
func checkConv2D(t *testing.T, engines []*engine.Engine, s convCase, g *tensor.RNG, precs ...precision.Type) {
	t.Helper()
	sample := func(n int, amp float32) *Var {
		v := randParam(g, n, s.c, s.h, s.w)
		for i, x := range v.Value.Data() {
			v.Value.Data()[i] = amp * x
		}
		return v
	}
	x, w, bias := sample(s.n, 1), randParam(g, s.outC, s.c, s.kh, s.kw), randParam(g, s.outC)
	merged := concatVars(sample(1, 5), x, sample(2, 0.2))
	sx, sw := float64(precision.I8Scale(precision.MaxAbs(x.Value.Data()))), float64(precision.I8Scale(precision.MaxAbs(w.Value.Data())))
	ref := directConv2D(x, w, s.stride, s.pad, func(a, b float64) float64 { return a * b })
	mag := directConv2D(x, w, s.stride, s.pad, func(a, b float64) float64 { return math.Abs(a * b) })
	per := len(ref) / s.n
	for _, prec := range precs {
		name := fmt.Sprintf("%v/%v", s, prec)
		operands := directConv2D(x, w, s.stride, s.pad, convTermError(prec, sx, sw))
		want := im2colConv2D(engines[0], prec, x, w, s.stride, s.pad)
		for _, e := range engines {
			sliceEq(t, fmt.Sprintf("%s/workers=%d", name, e.Workers()), segCtx(e, prec, nil).Conv2D(x, w, nil, s.stride, s.pad).Value.Data(), want)
			if out := e.Stats().PoolOutstanding; out != 0 {
				t.Fatalf("%s, %d workers: %d pooled buffers never returned", name, e.Workers(), out)
			}
		}
		for i, v := range want {
			bound := 1.01*operands[i] + f32SumBound*mag[i]
			if prec == precision.F16 {
				bound += math.Max((math.Abs(ref[i])+operands[i])*0x1p-11, 0x1p-25)
			}
			if d := math.Abs(float64(v) - ref[i]); !(d <= bound) {
				t.Fatalf("%s: out[%d] = %g, float64 convolution gives %g (|diff| %g > %g)", name, i, v, ref[i], d, bound)
			}
		}
		for _, b := range []*Var{nil, bias} {
			alone := want
			if b != nil {
				alone = segCtx(engines[0], prec, nil).Conv2D(x, w, b, s.stride, s.pad).Value.Data()
			}
			om := segCtx(engines[1], prec, []int{1, s.n, 2}).Conv2D(merged, w, b, s.stride, s.pad).Value.Data()
			sliceEq(t, fmt.Sprintf("%s/bias=%t/middle member", name, b != nil), om[per:per+len(alone)], alone)
		}
	}
}

// TestConv2DMatchesIm2colComposition pins the implicit-GEMM forward to the
// composition it replaced, bit for bit, with checkConv2D over convGrid ×
// filter counts on both sides of the MR = 4 row panel, at every precision,
// at 1, 4 and 16 workers, with the pool poisoning every returned buffer (a
// panel element the gather left unwritten, or scratch read after its unit
// returned it, is a NaN in the output).
func TestConv2DMatchesIm2colComposition(t *testing.T) {
	engine.SetDebug(true)
	defer engine.SetDebug(false)
	engines := []*engine.Engine{engine.New(1), engine.New(4), engine.New(16)}
	defer func() {
		for _, e := range engines {
			e.Close()
		}
	}()
	g := tensor.NewRNG(71)
	for _, s := range convGrid() {
		for _, outC := range []int{1, 3, 4, 5, 16, 33} {
			s.outC = outC
			checkConv2D(t, engines, s, g, precision.F32, precision.F16, precision.I8)
		}
	}
}

// TestConv2DMergedMemberBitwise runs checkConv2D at every precision on a
// stride-2 window whose planes end mid-panel. f32 and f16 need no
// segmentation (work units never span samples' numerics); at i8 each
// member's activation scale comes from its own segment, and the guard
// shows a merged run without segments differs.
func TestConv2DMergedMemberBitwise(t *testing.T) {
	engines := []*engine.Engine{engine.New(1), engine.New(4)}
	defer func() {
		for _, e := range engines {
			e.Close()
		}
	}()
	g := tensor.NewRNG(3)
	checkConv2D(t, engines, convCase{n: 2, c: 3, h: 13, w: 9, outC: 5, kh: 3, kw: 3, stride: 2, pad: 1}, g, precision.F32, precision.F16, precision.I8)
	member := segVar([]int{2, 3, 13, 9}, 1, 0)
	merged := concatVars(segVar([]int{1, 3, 13, 9}, 5, 1), member, segVar([]int{3, 3, 13, 9}, 0.2, 2))
	w := segVar([]int{5, 3, 3, 3}, 0.5, 3)
	alone := segCtx(engines[1], precision.I8, nil).Conv2D(member, w, nil, 2, 1).Value.Data()
	ou := segCtx(engines[1], precision.I8, nil).Conv2D(merged, w, nil, 2, 1).Value.Data()
	if eqPrefix(ou[len(alone)/2:], alone) {
		t.Error("unsegmented merged i8 conv matched the member alone — guard is vacuous")
	}
}

// checkConv2DReLU requires Conv2DReLU to equal ReLU(Conv2D) bit for bit
// at one shape and precision on every engine: with no bias and with a
// bias whose even channels hold −0, +Inf, −Inf, NaN and a NaN with the
// sign bit set in turn (the f16 store rounds that one to a positive NaN
// before the ReLU can clear it), for one request and for a merged batch of
// two, [1, 2] samples.
func checkConv2DReLU(t *testing.T, engines []*engine.Engine, s convCase, g *tensor.RNG, prec precision.Type) {
	t.Helper()
	x, w, bias := randParam(g, s.n, s.c, s.h, s.w), randParam(g, s.outC, s.c, s.kh, s.kw), randParam(g, s.outC)
	specials := []float32{float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()), math.Float32frombits(0xffc00000)}
	for oc := 0; oc < s.outC; oc += 2 {
		bias.Value.Data()[oc] = specials[(oc/2+s.h)%len(specials)]
	}
	merged := randParam(g, 3, s.c, s.h, s.w)
	for _, e := range engines {
		for _, b := range []*Var{nil, bias} {
			for _, in := range []struct {
				x    *Var
				segs []int
			}{{x, nil}, {merged, []int{1, 2}}} {
				name := fmt.Sprintf("%v/%v/workers=%d/bias=%t/segments=%v", s, prec, e.Workers(), b != nil, in.segs)
				want := segCtx(e, prec, in.segs).ReLU(segCtx(e, prec, in.segs).Conv2D(in.x, w, b, s.stride, s.pad))
				got := segCtx(e, prec, in.segs).Conv2DReLU(in.x, w, b, s.stride, s.pad)
				sliceEq(t, name, got.Value.Data(), want.Value.Data())
			}
		}
	}
}

// checkConv2DGrad is the differential check of Conv2D's backward at one
// shape, on data drawn from g, with the forward at prec: for Conv2D and
// Conv2DReLU, without and with a bias, the x, w and bias gradients of a
// loss that weighs each output by its own factor are bitwise equal on
// every engine, every pooled buffer returned, and within f32SumBound of
// the float64 definition (directConv2DGrad), element by element relative
// to that element's float64 sum of |term|: a gradient element whose terms
// cancel (a one-channel bias gradient, say) can be far smaller than its
// error bound, and one with no nonzero term must be exactly 0.
func checkConv2DGrad(t *testing.T, engines []*engine.Engine, s convCase, g *tensor.RNG, prec precision.Type) {
	t.Helper()
	x, w, bias := randParam(g, s.n, s.c, s.h, s.w), randParam(g, s.outC, s.c, s.kh, s.kw), randParam(g, s.outC)
	oh, ow := convOut(s.h, s.kh, s.stride, s.pad), convOut(s.w, s.kw, s.stride, s.pad)
	r := autograd.NewVar(randParam(g, s.n, s.outC, oh, ow).Value)
	bound := f32SumBound
	for _, b := range []*Var{nil, bias} {
		for _, relu := range []bool{false, true} {
			name := fmt.Sprintf("%v/%v/bias=%t/relu=%t", s, prec, b != nil, relu)
			var want [][]float32
			for _, e := range engines {
				x.Grad, w.Grad, bias.Grad = nil, nil, nil
				c := segCtx(e, prec, nil)
				c.Tape = autograd.NewTape()
				var y *Var
				if relu {
					y = c.Conv2DReLU(x, w, b, s.stride, s.pad)
				} else {
					y = c.Conv2D(x, w, b, s.stride, s.pad)
				}
				c.Tape.Backward(c.MeanAll(c.Mul(y, r)))
				got := [][]float32{x.Grad.Data(), w.Grad.Data()}
				if b != nil {
					got = append(got, b.Grad.Data())
				}
				if out := e.Stats().PoolOutstanding; out != 0 {
					t.Fatalf("%s, %d workers: %d pooled buffers never returned", name, e.Workers(), out)
				}
				if want != nil {
					for i, what := range []string{"x", "w", "bias"}[:len(got)] {
						sliceEq(t, fmt.Sprintf("%s/workers=%d/%s gradient", name, e.Workers(), what), got[i], want[i])
					}
					continue
				}
				want = got
				dy := append([]float32(nil), y.Grad.Data()...)
				if relu {
					for i, v := range y.Value.Data() {
						dy[i] *= reluGrad(v, 0)
					}
				}
				dx, dw := directConv2DGrad(x, w, dy, s.stride, s.pad, false)
				dxAbs, dwAbs := directConv2DGrad(x, w, dy, s.stride, s.pad, true)
				refs, mags := [][]float64{dx, dw}, [][]float64{dxAbs, dwAbs}
				if b != nil {
					db, dbAbs := make([]float64, s.outC), make([]float64, s.outC)
					for i, v := range dy {
						db[i/(oh*ow)%s.outC] += float64(v)
						dbAbs[i/(oh*ow)%s.outC] += math.Abs(float64(v))
					}
					refs, mags = append(refs, db), append(mags, dbAbs)
				}
				for i, ref := range refs {
					for j, v := range got[i] {
						if d := math.Abs(float64(v) - ref[j]); !(d <= bound*mags[i][j]) {
							t.Fatalf("%s: %s gradient [%d] = %g, float64 definition gives %g (|diff| %g > %g·%g)", name, []string{"x", "w", "bias"}[i], j, v, ref[j], d, bound, mags[i][j])
						}
					}
				}
			}
		}
	}
}

// TestConv2DGradMatchesDirectLoops pins Conv2D's backward on the GEMM core
// with checkConv2DGrad over convGrid — filter counts on both sides of the
// MR = 4 row panel, in turn — plus a non-square kernel and a pad wider
// than the kernel, at 1, 4 and 16 workers, with the pool poisoning every
// returned buffer (a panel or product element the backward left
// unwritten, or scratch read after it was returned, is a NaN in a
// gradient).
func TestConv2DGradMatchesDirectLoops(t *testing.T) {
	engine.SetDebug(true)
	defer engine.SetDebug(false)
	engines := []*engine.Engine{engine.New(1), engine.New(4), engine.New(16)}
	defer func() {
		for _, e := range engines {
			e.Close()
		}
	}()
	g := tensor.NewRNG(73)
	cases := append(convGrid(),
		convCase{n: 2, c: 3, h: 9, w: 12, kh: 2, kw: 5, stride: 2, pad: 1},
		convCase{n: 2, c: 2, h: 4, w: 5, kh: 3, kw: 3, stride: 1, pad: 4},
	)
	for i, s := range cases {
		s.outC = []int{1, 3, 4, 5, 16, 33}[i%6]
		checkConv2DGrad(t, engines, s, g, precision.F32)
	}
}

// FuzzConv2D runs checkConv2D on 1 and 4 workers over batch 1–3, up to 8
// channels, planes up to 20×20, up to 16 filters of up to 5×5, stride 1–3,
// pad 0–2 and the three precisions; dimensions map 1 + x%bound (pad x%3),
// and a window the padded plane cannot hold — no output pixel — is
// skipped. It then runs checkConv2DReLU on 1 and 3 workers. The seed
// corpus is convGrid's shapes that fit.
func FuzzConv2D(f *testing.F) {
	for _, s := range convGrid() {
		if s.n <= 3 && s.c <= 8 && s.h <= 20 && s.w <= 20 && s.kh <= 5 && s.stride <= 3 && s.pad <= 2 {
			for p := uint8(0); p < 3; p++ {
				f.Add(uint8(s.n-1), uint8(s.c-1), uint8(s.h-1), uint8(s.w-1), uint8(2+p), uint8(s.kh-1), uint8(s.kw-1), uint8(s.stride-1), uint8(s.pad), p)
			}
		}
	}
	engines := []*engine.Engine{engine.New(1), engine.New(4), engine.New(3)}
	f.Cleanup(func() {
		for _, e := range engines {
			e.Close()
		}
	})
	f.Fuzz(func(t *testing.T, n, c, h, w, outC, kh, kw, stride, pad, prec uint8) {
		s := convCase{
			n: 1 + int(n)%3, c: 1 + int(c)%8, h: 1 + int(h)%20, w: 1 + int(w)%20, outC: 1 + int(outC)%16,
			kh: 1 + int(kh)%5, kw: 1 + int(kw)%5, stride: 1 + int(stride)%3, pad: int(pad) % 3,
		}
		if s.h+2*s.pad < s.kh || s.w+2*s.pad < s.kw {
			t.Skip("no output pixel")
		}
		p := [3]precision.Type{precision.F32, precision.F16, precision.I8}[prec%3]
		g := tensor.NewRNG(int64(s.h)<<8 | int64(s.w))
		checkConv2D(t, engines[:2], s, g, p)
		checkConv2DReLU(t, []*engine.Engine{engines[0], engines[2]}, s, g, p)
		checkConv2DGrad(t, engines[:2], s, g, p)
	})
}

// TestConv2DReLUGradMatchesComposition: under a tape, Conv2DReLU's
// output and the gradients it leaves on x, w and the bias equal those of
// ReLU(Conv2D) bit for bit, at every precision and at 1 and 4 workers.
// The loss weighs each output by its own factor, so the masked gradient
// is not uniform, and some but not all outputs are masked.
func TestConv2DReLUGradMatchesComposition(t *testing.T) {
	for _, prec := range []precision.Type{precision.F32, precision.F16, precision.I8} {
		for _, workers := range []int{1, 4} {
			e := engine.New(workers)
			grads := func(fused bool) [][]float32 {
				g := tensor.NewRNG(9)
				x, w, b := randParam(g, 2, 3, 7, 6), randParam(g, 5, 3, 3, 3), randParam(g, 5)
				r := randParam(g, 2, 5, 4, 3)
				tape := autograd.NewTape()
				c := &Ctx{Eng: e, Tape: tape}
				c.prec = prec
				var y *Var
				if fused {
					y = c.Conv2DReLU(x, w, b, 2, 1)
				} else {
					y = c.ReLU(c.Conv2D(x, w, b, 2, 1))
				}
				tape.Backward(c.MeanAll(c.Mul(y, r)))
				return [][]float32{y.Value.Data(), x.Grad.Data(), w.Grad.Data(), b.Grad.Data()}
			}
			want, got := grads(false), grads(true)
			masked := 0
			for _, v := range want[0] {
				if v == 0 {
					masked++
				}
			}
			if masked == 0 || masked == len(want[0]) {
				t.Fatalf("%v: %d of %d outputs masked — the mask is not exercised", prec, masked, len(want[0]))
			}
			for i, name := range []string{"output", "x gradient", "w gradient", "bias gradient"} {
				sliceEq(t, fmt.Sprintf("%v/workers=%d/%s", prec, workers, name), got[i], want[i])
			}
			e.Close()
		}
	}
}

// TestConv2DPackAccounting: a convolution call draws one A-panel set for
// the weights and one B-panel scratch per (sample, block) work unit through
// the counted panel helpers — the same count at any worker count, every
// buffer returned — and the bytes are the panels produced: the weights
// once, not once per sample.
func TestConv2DPackAccounting(t *testing.T) {
	g := tensor.NewRNG(5)
	// 20×20 = 400 output pixels = 25 panels = 4 blocks of ≤ 8; K = 27.
	x, w := randParam(g, 3, 3, 20, 20), randParam(g, 6, 3, 3, 3)
	const units, k = 3 * 4, 27
	for _, workers := range []int{1, 4} {
		e := engine.New(workers)
		(&Ctx{Eng: e}).Conv2D(x, w, nil, 1, 1)
		packs := e.Stats().Pack
		if got := packs.PanelCheckouts; got != 1+units {
			t.Errorf("%d workers: %d panel checkouts, want %d (weights + one per work unit)", workers, got, 1+units)
		}
		if got, want := packs.PanelBytes, int64(gemm.LenA(6, k)+3*gemm.LenB(k, 400))*4; got != want {
			t.Errorf("%d workers: %d panel bytes, want %d", workers, got, want)
		}
		if out := e.Stats().PoolOutstanding; out != 0 {
			t.Errorf("%d workers: %d pooled buffers never returned", workers, out)
		}
		e.Close()
	}
}
