package ops

import (
	"fmt"
	"math"
	"testing"

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

// directConv2D is the convolution's definition in float64.
func directConv2D(x, w *Var, stride, pad int) []float64 {
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
								sum += float64(xd[((ni*ch+ci)*h+iy)*wd+ix]) * float64(wdta[((oc*ch+ci)*kh+ky)*kw+kx])
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

// convCase is one forward shape: input [n,c,h,w], outC filters of k×k.
type convCase struct{ n, c, h, w, outC, k, stride, pad int }

func (s convCase) String() string {
	return fmt.Sprintf("%dx%dx%dx%d_o%d_k%d_s%d_p%d", s.n, s.c, s.h, s.w, s.outC, s.k, s.stride, s.pad)
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
					cases = append(cases, convCase{n: 1 + i%2, c: 1 + (i+k)%3, h: h, w: w, k: k, stride: stride, pad: pad})
				}
			}
		}
	}
	return append(cases,
		convCase{n: 1, c: 64, h: 7, w: 17, k: 3, stride: 1, pad: 1},  // K 576: 7-panel blocks, 119 pixels
		convCase{n: 1, c: 24, h: 5, w: 11, k: 7, stride: 1, pad: 3},  // K 1176: 3-panel blocks, 55 pixels
		convCase{n: 2, c: 456, h: 3, w: 11, k: 3, stride: 1, pad: 1}, // K 4104: 1-panel blocks, 33 pixels
	)
}

// TestConv2DMatchesIm2colComposition pins the implicit-GEMM forward to the
// composition it replaced, bit for bit: a stored column matrix times the
// weights through gemm.F32/F16/I8 must equal Conv2D at every precision,
// over convGrid × filter counts on both sides of the MR = 4 row panel, at
// 1, 4 and 16 workers, with the pool poisoning every returned buffer (a
// panel element the gather left unwritten, or scratch read after its unit
// returned it, is a NaN in the output). The same outputs are held to the
// convolution's float64 definition within 1e-5 of the largest output at
// f32, and within the documented 1e-2 (f16) and 1e-1 (i8).
func TestConv2DMatchesIm2colComposition(t *testing.T) {
	engine.SetDebug(true)
	defer engine.SetDebug(false)
	engines := []*engine.Engine{engine.New(1), engine.New(4), engine.New(16)}
	defer func() {
		for _, e := range engines {
			e.Close()
		}
	}()
	bounds := map[precision.Type]float64{precision.F32: 1e-5, precision.F16: 1e-2, precision.I8: 1e-1}
	g := tensor.NewRNG(71)
	for _, s := range convGrid() {
		for _, outC := range []int{1, 3, 4, 5, 16, 33} {
			s.outC = outC
			x, w := randParam(g, s.n, s.c, s.h, s.w), randParam(g, s.outC, s.c, s.k, s.k)
			ref := directConv2D(x, w, s.stride, s.pad)
			var refMax float64
			for _, v := range ref {
				refMax = math.Max(refMax, math.Abs(v))
			}
			for _, prec := range []precision.Type{precision.F32, precision.F16, precision.I8} {
				want := im2colConv2D(engines[0], prec, x, w, s.stride, s.pad)
				for _, e := range engines {
					got := lowpCtx(e, prec).Conv2D(x, w, nil, s.stride, s.pad).Value.Data()
					for i := range want {
						if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
							t.Fatalf("%v %v, %d workers: out[%d] = %g, im2col + GEMM gives %g", s, prec, e.Workers(), i, got[i], want[i])
						}
					}
					if out := e.Stats().PoolOutstanding; out != 0 {
						t.Fatalf("%v %v, %d workers: %d pooled buffers never returned", s, prec, e.Workers(), out)
					}
				}
				for i, v := range want {
					if d := math.Abs(float64(v) - ref[i]); !(d <= bounds[prec]*refMax) {
						t.Fatalf("%v %v: out[%d] = %g, float64 convolution gives %g (|diff| %g > %g·%g)", s, prec, i, v, ref[i], d, bounds[prec], refMax)
					}
				}
			}
		}
	}
}

// TestConv2DMergedMemberBitwise: a request's Conv2D output is the same bits
// alone and as the middle member of a three-request merged batch, at every
// precision, with and without a bias, at a stride-2 window whose planes end
// mid-panel. f32 and f16 need no segmentation (work units never span
// samples' numerics); at i8 each member's activation scale comes from its
// own segment, and the guard shows a merged run without segments differs.
func TestConv2DMergedMemberBitwise(t *testing.T) {
	e := engine.New(4)
	defer e.Close()
	before := segVar([]int{1, 3, 13, 9}, 5, 1)
	member := segVar([]int{2, 3, 13, 9}, 1, 0)
	after := segVar([]int{3, 3, 13, 9}, 0.2, 2)
	merged := concatVars(before, member, after)
	w := segVar([]int{5, 3, 3, 3}, 0.5, 3)
	for _, bias := range []*Var{nil, segVar([]int{5}, 0.1, 4)} {
		for _, prec := range []precision.Type{precision.F32, precision.F16, precision.I8} {
			alone := segCtx(e, prec, nil).Conv2D(member, w, bias, 2, 1).Value.Data()
			per := len(alone) / 2
			om := segCtx(e, prec, []int{1, 2, 3}).Conv2D(merged, w, bias, 2, 1).Value.Data()
			sliceEq(t, fmt.Sprintf("conv/%v/middle member", prec), om[per:3*per], alone)
			if prec != precision.I8 {
				continue
			}
			ou := segCtx(e, prec, nil).Conv2D(merged, w, bias, 2, 1).Value.Data()
			if eqPrefix(ou[per:], alone) {
				t.Error("unsegmented merged i8 conv matched the member alone — guard is vacuous")
			}
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
		before := gemm.PackStats()
		(&Ctx{Eng: e}).Conv2D(x, w, nil, 1, 1)
		after := gemm.PackStats()
		if got := after.PanelCheckouts - before.PanelCheckouts; got != 1+units {
			t.Errorf("%d workers: %d panel checkouts, want %d (weights + one per work unit)", workers, got, 1+units)
		}
		if got, want := after.PanelBytes-before.PanelBytes, int64(gemm.LenA(6, k)+3*gemm.LenB(k, 400))*4; got != want {
			t.Errorf("%d workers: %d panel bytes, want %d", workers, got, want)
		}
		if out := e.Stats().PoolOutstanding; out != 0 {
			t.Errorf("%d workers: %d pooled buffers never returned", workers, out)
		}
		e.Close()
	}
}
