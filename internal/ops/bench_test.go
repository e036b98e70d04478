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

// naiveMatMulNN is the pre-refactor single-threaded kernel, kept here as
// the speedup baseline for BenchmarkEngineMatMul (the acceptance bar is
// ≥3× on ≥4 cores with fewer allocs/op) and as the differential oracle
// of TestCensusShapesMatchNaive.
func naiveMatMulNN(dst, a, b []float32, m, k, n int) {
	for i := 0; i < m; i++ {
		ar := a[i*k : (i+1)*k]
		dr := dst[i*n : (i+1)*n]
		for l, av := range ar {
			if av == 0 {
				continue
			}
			br := b[l*n : (l+1)*n]
			for j, bv := range br {
				dr[j] += av * bv
			}
		}
	}
}

// naiveConv2D is the pre-refactor direct convolution loop (no im2col, no
// parallelism), the baseline for BenchmarkEngineConv.
func naiveConv2D(od, xd, wd []float32, n, ch, h, w, outC, kh, kw, oh, ow, stride, pad int) {
	for ni := 0; ni < n; ni++ {
		for oc := 0; oc < outC; oc++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					var sum float32
					for ci := 0; ci < ch; ci++ {
						for ky := 0; ky < kh; ky++ {
							iy := oy*stride + ky - pad
							if iy < 0 || iy >= h {
								continue
							}
							xRow := xd[((ni*ch+ci)*h+iy)*w:]
							wRow := wd[((oc*ch+ci)*kh+ky)*kw:]
							for kx := 0; kx < kw; kx++ {
								ix := ox*stride + kx - pad
								if ix < 0 || ix >= w {
									continue
								}
								sum += xRow[ix] * wRow[kx]
							}
						}
					}
					od[((ni*outC+oc)*oh+oy)*ow+ox] = sum
				}
			}
		}
	}
}

// BenchmarkNaiveMatMul512 is the pre-refactor 512×512×512 kernel.
func BenchmarkNaiveMatMul512(b *testing.B) {
	g := tensor.NewRNG(41)
	x, y := tensor.New(512, 512), tensor.New(512, 512)
	g.Uniform(x, -1, 1)
	g.Uniform(y, -1, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst := make([]float32, 512*512)
		naiveMatMulNN(dst, x.Data(), y.Data(), 512, 512, 512)
	}
}

// BenchmarkEngineMatMul is the same 512×512×512 f32 product through the
// blocked, engine-parallel MatMul operator (default engine: GOMAXPROCS
// workers). Compare against BenchmarkNaiveMatMul512.
func BenchmarkEngineMatMul(b *testing.B) {
	g := tensor.NewRNG(41)
	x := benchVar(g, 512, 512)
	y := benchVar(g, 512, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Infer().MatMul(x, y)
	}
}

// BenchmarkNaiveConv is the pre-refactor direct convolution:
// 8×16×28×28 input, 32×16×3×3 weights, stride 1, pad 1.
func BenchmarkNaiveConv(b *testing.B) {
	g := tensor.NewRNG(42)
	x, w := tensor.New(8, 16, 28, 28), tensor.New(32, 16, 3, 3)
	g.Uniform(x, -1, 1)
	g.Uniform(w, -1, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		od := make([]float32, 8*32*28*28)
		naiveConv2D(od, x.Data(), w.Data(), 8, 16, 28, 28, 32, 3, 3, 28, 28, 1, 1)
	}
}

// BenchmarkEngineConv is the same convolution through the im2col + GEMM
// path with pooled scratch on the default engine.
func BenchmarkEngineConv(b *testing.B) {
	g := tensor.NewRNG(42)
	x := benchVar(g, 8, 16, 28, 28)
	w := benchVar(g, 32, 16, 3, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Infer().Conv2D(x, w, nil, 1, 1)
	}
}

// BenchmarkEngineMatMul4Workers pins a 4-worker engine regardless of
// GOMAXPROCS, for like-for-like scaling comparisons across machines.
func BenchmarkEngineMatMul4Workers(b *testing.B) {
	e := engine.New(4)
	defer e.Close()
	g := tensor.NewRNG(41)
	x := benchVar(g, 512, 512)
	y := benchVar(g, 512, 512)
	c := &Ctx{Eng: e}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.MatMul(x, y)
	}
}

func benchVar(g *tensor.RNG, shape ...int) *Var {
	t := tensor.New(shape...)
	g.Uniform(t, -1, 1)
	return autograd.NewVar(t)
}

// BenchmarkMatMulShapes sweeps the f32 MatMul operator across square
// shapes (64³ … 1024³) and the skinny shapes the model actually hits:
// 128×64×512 (a projection-like tall-thin product), 32×64×64 (the
// attention score tile, Tq-tile × dh × Tk) and the census of head/gate
// products with rows ≤ 8 (2×128×2 … 8×64×10), where one mostly-padding
// MR×NR tile is the whole product and pack overhead dominates. Every
// shape rides the packed micro-kernel; the sweep pins its cost per shape
// class in BENCH_ops.json.
func BenchmarkMatMulShapes(b *testing.B) {
	shapes := []struct{ m, k, n int }{
		{64, 64, 64},
		{128, 128, 128},
		{256, 256, 256},
		{512, 512, 512},
		{1024, 1024, 1024},
		{128, 64, 512},
		{32, 64, 64},
		{2, 128, 2},
		{2, 128, 8},
		{2, 12, 192},
		{2, 2, 192},
		{1, 192, 64},
		{8, 64, 10},
	}
	for _, s := range shapes {
		b.Run(fmt.Sprintf("%dx%dx%d", s.m, s.k, s.n), func(b *testing.B) {
			g := tensor.NewRNG(41)
			x := benchVar(g, s.m, s.k)
			y := benchVar(g, s.k, s.n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Infer().MatMul(x, y)
			}
		})
	}
}

func BenchmarkMatMul128(b *testing.B) {
	g := tensor.NewRNG(1)
	x := benchVar(g, 128, 128)
	y := benchVar(g, 128, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Infer().MatMul(x, y)
	}
}

// convShapes are the convolutions the served models issue at their bench
// batch sizes — avmnist's two LeNet layers (K = 25 over the zero-padded
// image, then K = 150) and the 3×3 stacks of vnt, push and medseg — plus
// one stride-2 ResNet stage and one paper-scale layer no benchmark
// workload serves, and the 16-channel 64² layer again under the two
// reduced precisions.
var convShapes = []struct {
	n, c, h, w, outC, k, stride, pad int
	prec                             precision.Type
}{
	{32, 1, 28, 28, 6, 5, 1, 2, precision.F32},
	{32, 6, 14, 14, 16, 5, 1, 0, precision.F32},
	{2, 16, 64, 64, 32, 3, 1, 1, precision.F32},
	{2, 32, 32, 32, 64, 3, 1, 1, precision.F32},
	{2, 3, 128, 128, 16, 3, 1, 1, precision.F32},
	{1, 64, 16, 16, 128, 3, 1, 1, precision.F32},
	{2, 64, 56, 56, 128, 3, 2, 1, precision.F32},
	{2, 64, 112, 112, 128, 3, 1, 1, precision.F32},
	{2, 16, 64, 64, 32, 3, 1, 1, precision.F16},
	{2, 16, 64, 64, 32, 3, 1, 1, precision.I8},
}

// BenchmarkConv2D sweeps the Conv2D forward over convShapes on the
// default engine, reporting the achieved GFLOP/s (2·K multiply-adds per
// output element) beside ns/op.
func BenchmarkConv2D(b *testing.B) {
	for _, s := range convShapes {
		name := fmt.Sprintf("%dx%dx%dx%d_o%d_k%d_s%d_p%d_%s", s.n, s.c, s.h, s.w, s.outC, s.k, s.stride, s.pad, s.prec)
		b.Run(name, func(b *testing.B) {
			g := tensor.NewRNG(2)
			x := benchVar(g, s.n, s.c, s.h, s.w)
			w := benchVar(g, s.outC, s.c, s.k, s.k)
			c := lowpCtx(nil, s.prec)
			oh, ow := convOut(s.h, s.k, s.stride, s.pad), convOut(s.w, s.k, s.stride, s.pad)
			flops := 2 * float64(s.n*s.outC*oh*ow) * float64(s.c*s.k*s.k)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Conv2D(x, w, nil, s.stride, s.pad)
			}
			b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}

// BenchmarkPackBConv prices gemm.PackBConv, the gather that copies a
// convolution's image windows into B panels, over one sample of each
// stride-1 layer the served models issue (avmnist's LeNet layers, vnt's
// first layer, the 3×3 stacks of vnt, push and medseg) and one stride-2
// ResNet stage as the control, in blocks of 8 panels (a work unit's
// largest). It reports the panel bytes written per op.
func BenchmarkPackBConv(b *testing.B) {
	for _, s := range []struct{ c, h, w, k, stride, pad int }{
		{1, 28, 28, 5, 1, 2},
		{6, 14, 14, 5, 1, 0},
		{3, 128, 128, 3, 1, 1},
		{1, 64, 64, 3, 1, 1},
		{16, 64, 64, 3, 1, 1},
		{32, 32, 32, 3, 1, 1},
		{64, 16, 16, 3, 1, 1},
		{64, 56, 56, 3, 2, 1},
	} {
		g := gemm.ConvShape{C: s.c, H: s.h, W: s.w, KH: s.k, KW: s.k, Stride: s.stride, Pad: s.pad}
		g.OH, g.OW = convOut(s.h, s.k, s.stride, s.pad), convOut(s.w, s.k, s.stride, s.pad)
		b.Run(fmt.Sprintf("%dx%dx%d_k%d_s%d_p%d", s.c, s.h, s.w, s.k, s.stride, s.pad), func(b *testing.B) {
			img := make([]float32, s.c*s.h*s.w)
			tensor.NewRNG(71).Uniform(tensor.FromSlice(img, len(img)), -1, 1)
			k, m, block := g.K(), g.OH*g.OW, 8*gemm.NR
			bp := make([]float32, gemm.LenB(k, block))
			b.SetBytes(int64(4 * k * m))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j0 := 0; j0 < m; j0 += block {
					cols := min(block, m-j0)
					gemm.PackBConv(bp[:gemm.LenB(k, cols)], img, g, j0, cols)
				}
			}
		})
	}
}

// BenchmarkConvBlock is vnt's first conv block at batch 2: a 3×3 conv
// of [2,3,128,128] to 16 channels with its bias and ReLU (one fused
// operator), then a 2×2 max-pool, untaped.
func BenchmarkConvBlock(b *testing.B) {
	g := tensor.NewRNG(2)
	x, w, bias := benchVar(g, 2, 3, 128, 128), benchVar(g, 16, 3, 3, 3), benchVar(g, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := Infer()
		c.MaxPool2D(c.Conv2DReLU(x, w, bias, 1, 1), 2)
	}
}

// BenchmarkMaxPool2D pools the output of BenchmarkConvBlock's conv,
// [2,16,128,128], by 2×2 windows, untaped.
func BenchmarkMaxPool2D(b *testing.B) {
	x := benchVar(tensor.NewRNG(3), 2, 16, 128, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Infer().MaxPool2D(x, 2)
	}
}

// BenchmarkConv2DBackward times one taped convolution step, forward and
// backward, on the default engine. The dense row's output gradient is
// uniform. The LeNet rows are avmnist's two image-encoder layers at batch
// 16 (Conv2DReLU with a bias). Their loss keeps one output of each 2×2
// window, at a random position, as a max-pool keeps one, so with the
// ReLU's mask about 1/8 of the output gradient is non-zero. (A real
// max-pool keeps each window's largest output, which the ReLU rarely
// clears: it leaves about 0.24.) The first layer's input is data and gets
// no gradient.
func BenchmarkConv2DBackward(b *testing.B) {
	for _, r := range []struct {
		name                 string
		n, c, h, outC, k, pd int
		lenet, xGrad         bool
	}{
		{"dense_4x8x14x14_o16_k3", 4, 8, 14, 16, 3, 1, false, true},
		{"lenet1_16x1x28x28_o6_k5_sparse", 16, 1, 28, 6, 5, 2, true, false},
		{"lenet2_16x6x14x14_o16_k5_sparse", 16, 6, 14, 16, 5, 0, true, true},
	} {
		b.Run(r.name, func(b *testing.B) {
			g := tensor.NewRNG(3)
			x := benchVar(g, r.n, r.c, r.h, r.h)
			if r.xGrad {
				x = autograd.Param(x.Value)
			}
			w := autograd.Param(benchVar(g, r.outC, r.c, r.k, r.k).Value)
			bias := autograd.Param(benchVar(g, r.outC).Value)
			params := []*Var{x, w, bias}
			oh := r.h + 2*r.pd - r.k + 1
			keep := tensor.New(r.n, r.outC, oh, oh)
			for i := range keep.Data() {
				if oy, ox := i/oh%oh, i%oh; oy%2 == 0 && ox%2 == 0 {
					keep.Data()[i+g.Intn(2)*oh+g.Intn(2)] = 1
				}
			}
			mask := autograd.NewVar(keep)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tape := autograd.NewTape()
				c := &Ctx{Tape: tape}
				var out *Var
				if r.lenet {
					out = c.Mul(c.Conv2DReLU(x, w, bias, 1, r.pd), mask)
				} else {
					out = c.Conv2D(x, w, nil, 1, r.pd)
				}
				tape.Backward(c.MeanAll(out))
				for _, p := range params {
					p.ZeroGrad()
				}
			}
		})
	}
}

func BenchmarkSoftmax(b *testing.B) {
	g := tensor.NewRNG(4)
	x := benchVar(g, 256, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Infer().Softmax(x)
	}
}

// BenchmarkLayerNorm normalizes 64 rows of 256 and mosei's transformer
// activations at batch 2 (B2·T50 = 100 rows of 256), untaped.
func BenchmarkLayerNorm(b *testing.B) {
	for _, rows := range []int{64, 100} {
		b.Run(fmt.Sprintf("%dx256", rows), func(b *testing.B) {
			g := tensor.NewRNG(5)
			x := benchVar(g, rows, 256)
			gamma := Ones(false, 256)
			beta := autograd.NewVar(tensor.New(256))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Infer().LayerNorm(x, gamma, beta, 1e-5)
			}
		})
	}
}

// BenchmarkAdd is the residual add of mosei's transformer layers at batch
// 2: two 100×256 operands.
func BenchmarkAdd(b *testing.B) {
	g := tensor.NewRNG(8)
	x, y := benchVar(g, 100, 256), benchVar(g, 100, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Infer().Add(x, y)
	}
}

func BenchmarkAnalyticConv(b *testing.B) {
	// Abstract inputs skip the math: this measures pure spec emission,
	// the cost basis of the dataset-free profiling mode.
	x := autograd.NewVar(tensor.NewAbstract(32, 64, 56, 56))
	w := autograd.NewVar(tensor.New(128, 64, 3, 3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Infer().Conv2D(x, w, nil, 1, 1)
	}
}

func BenchmarkOuterFusion(b *testing.B) {
	g := tensor.NewRNG(6)
	x := benchVar(g, 32, 16)
	y := benchVar(g, 32, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Infer().OuterFusion(x, y)
	}
}

// linearShapes are the Linear products the served models issue: mosei's
// LSTM steps at batch 2 (2×128×512 recurrent, 2×35×512 and 2×74×512
// input projections), its transformer FFN at b2·T50 (100×256×512 and
// 100×512×256), the head-sized census shape 2×128×2, and the recurrent
// step again under the two reduced precisions.
var linearShapes = []struct {
	rows, in, out int
	prec          precision.Type
}{
	{2, 128, 512, precision.F32},
	{2, 35, 512, precision.F32},
	{2, 74, 512, precision.F32},
	{100, 256, 512, precision.F32},
	{100, 512, 256, precision.F32},
	{2, 128, 2, precision.F32},
	{2, 128, 512, precision.F16},
	{2, 128, 512, precision.I8},
}

func benchLinear(b *testing.B, frozen bool) {
	for _, s := range linearShapes {
		b.Run(fmt.Sprintf("%dx%dx%d_%s", s.rows, s.in, s.out, s.prec), func(b *testing.B) {
			g := tensor.NewRNG(41)
			x := benchVar(g, s.rows, s.in)
			w, bias := benchVar(g, s.in, s.out), benchVar(g, s.out)
			if frozen {
				w.Frozen = gemm.NewPackedB(nil)
			}
			c := lowpCtx(nil, s.prec)
			c.Linear(x, w, bias) // first use packs the frozen weight
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Linear(x, w, bias)
			}
		})
	}
}

// BenchmarkLinearFrozen is Linear over a frozen store network's weight:
// the B panels (and the i8 weight scale) are kept, so a call packs only
// its activations.
func BenchmarkLinearFrozen(b *testing.B) { benchLinear(b, true) }

// BenchmarkLinearPerCall is its twin over a private network's weight,
// which re-packs W on every call.
func BenchmarkLinearPerCall(b *testing.B) { benchLinear(b, false) }

// BenchmarkLSTMSequence is one of mosei's LSTM encoders at batch 2 over
// frozen weights, as a served model runs it: 50 steps of a 35- (vision)
// or 74-feature (audio) input into hidden width 128 — one input
// projection over all 100 rows, then per step a 2×128×512 recurrent
// product and the fused gate cell.
func BenchmarkLSTMSequence(b *testing.B) {
	for _, in := range []int{35, 74} {
		b.Run(fmt.Sprintf("B2_T50_D%d_H128", in), func(b *testing.B) {
			g := tensor.NewRNG(71)
			x := benchVar(g, 2, 50, in)
			wx, wh, bias := benchVar(g, in, 512), benchVar(g, 128, 512), benchVar(g, 512)
			wx.Frozen, wh.Frozen = gemm.NewPackedB(nil), gemm.NewPackedB(nil)
			c := Infer()
			c.LSTMSequence(x, wx, wh, bias) // first use packs the frozen weights
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.LSTMSequence(x, wx, wh, bias)
			}
		})
	}
}

// BenchmarkAttention is the fused attention kernel at the shapes the
// served transformers issue: mosei's encoder layers at batch 2
// (B2·T50·D256·H8), a wider, longer layer (B2·T128·D512·H8) and one
// ViT-length sequence (B1·T197·D256·H4).
func BenchmarkAttention(b *testing.B) {
	for _, s := range []struct{ b, t, d, heads int }{
		{2, 50, 256, 8},
		{2, 128, 512, 8},
		{1, 197, 256, 4},
	} {
		b.Run(fmt.Sprintf("B%d_T%d_D%d_H%d", s.b, s.t, s.d, s.heads), func(b *testing.B) {
			g := tensor.NewRNG(61)
			q, k, v := benchVar(g, s.b, s.t, s.d), benchVar(g, s.b, s.t, s.d), benchVar(g, s.b, s.t, s.d)
			scale := float32(1 / math.Sqrt(float64(s.d/s.heads)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Infer().Attention(q, k, v, s.heads, scale)
			}
		})
	}
}

// BenchmarkPackA prices gemm.PackA, the A-operand pack every Linear,
// convolution and attention tile runs, at the operands the served models
// pack: mosei's FFN activations (100×256 and 100×512), one attention
// query tile of a 256-wide projection (32×32, rows 256 apart) and an
// LSTM step's hidden state (2×128). It reports the bytes packed per op.
func BenchmarkPackA(b *testing.B) {
	for _, s := range []struct{ m, k, lda int }{
		{100, 256, 256},
		{100, 512, 512},
		{32, 32, 256},
		{2, 128, 128},
	} {
		name := fmt.Sprintf("%dx%d", s.m, s.k)
		if s.lda != s.k {
			name += fmt.Sprintf("_lda%d", s.lda)
		}
		b.Run(name, func(b *testing.B) {
			a := make([]float32, (s.m-1)*s.lda+s.k)
			tensor.NewRNG(67).Uniform(tensor.FromSlice(a, len(a)), -1, 1)
			ap := make([]float32, gemm.LenA(s.m, s.k))
			b.SetBytes(int64(4 * s.m * s.k))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				gemm.PackA(ap, a, s.m, s.k, s.lda)
			}
		})
	}
}

// BenchmarkPackBT prices gemm.PackBT, fused attention's Kᵀ pack, at one
// head of each BenchmarkAttention shape: dh × Tk panels read out of the
// [B,T,D] key projection, rows D apart (32×50 of D256, 64×128 of D512,
// 64×197 of D256). It reports the bytes packed per op.
func BenchmarkPackBT(b *testing.B) {
	for _, s := range []struct{ k, n, ldb int }{
		{32, 50, 256},
		{64, 128, 512},
		{64, 197, 256},
	} {
		b.Run(fmt.Sprintf("%dx%d_ldb%d", s.k, s.n, s.ldb), func(b *testing.B) {
			src := make([]float32, (s.n-1)*s.ldb+s.k)
			tensor.NewRNG(73).Uniform(tensor.FromSlice(src, len(src)), -1, 1)
			bp := make([]float32, gemm.LenB(s.k, s.n))
			b.SetBytes(int64(4 * s.k * s.n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				gemm.PackBT(bp, src, s.k, s.n, s.ldb)
			}
		})
	}
}

// benchActivation prices one element-wise activation at the mosei FFN's
// hidden shape (B2·T50 rows × 512) over inputs uniform on [-4, 4): both
// signs, linear and saturated regions.
func benchActivation(b *testing.B, f func(*Ctx, *Var) *Var) {
	t := tensor.New(100, 512)
	tensor.NewRNG(63).Uniform(t, -4, 4)
	x := autograd.NewVar(t)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f(Infer(), x)
	}
}

func BenchmarkActivationReLU(b *testing.B)    { benchActivation(b, (*Ctx).ReLU) }
func BenchmarkActivationSigmoid(b *testing.B) { benchActivation(b, (*Ctx).Sigmoid) }
func BenchmarkActivationTanh(b *testing.B)    { benchActivation(b, (*Ctx).Tanh) }
func BenchmarkActivationGELU(b *testing.B)    { benchActivation(b, (*Ctx).GELU) }
