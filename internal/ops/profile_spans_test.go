package ops

import (
	"fmt"
	"testing"
	"time"

	"mmbench/internal/gemm"
	"mmbench/internal/obs"
	"mmbench/internal/tensor"
)

// profiledWalls runs op once untimed (pools and scratch warm up), then
// once under a profiler, and returns the summed span time of each kernel
// name together with the profiled call's wall time.
func profiledWalls(op func(c *Ctx)) (map[string]time.Duration, time.Duration) {
	op(Infer())
	prof := obs.NewProfiler()
	c := &Ctx{Prof: prof.Root()}
	t0 := time.Now()
	op(c)
	wall := time.Since(t0)
	walls := map[string]time.Duration{}
	for _, s := range prof.Finish().Spans {
		walls[s.Name] += s.End - s.Start
	}
	return walls, wall
}

// pairedWalls runs op under a profiler (profiledWalls) and its product
// alone (alone, which warms up and times one run), interleaved, five
// times each. It returns the minimum over the five profiled calls of each
// kernel name's span time and of the call's wall, and the minimum of the
// product's own time. Interleaving meets both sides with the same load,
// and the minima drop the samples a busy machine stretched, so a span
// compared with the product alone is compared with what the same work
// costs unhindered.
func pairedWalls(op func(c *Ctx), alone func() time.Duration) (walls map[string]time.Duration, wall, product time.Duration) {
	for i := range 5 {
		w, wl := profiledWalls(op)
		p := alone()
		if i == 0 {
			walls, wall, product = w, wl, p
			continue
		}
		for name, d := range walls {
			walls[name] = min(d, w[name])
		}
		wall, product = min(wall, wl), min(product, p)
	}
	return walls, wall, product
}

// TestLinearProductLandsOnItsSpan requires a profiler to charge Linear's
// product to the linear span and only the fused bias add's bookkeeping to
// the bias_add span, which is emitted after the product stores.
func TestLinearProductLandsOnItsSpan(t *testing.T) {
	const rows, in, out = 256, 1024, 1024
	g := tensor.NewRNG(71)
	x, w, b := benchVar(g, rows, in), benchVar(g, in, out), benchVar(g, out)
	walls, wall := profiledWalls(func(c *Ctx) { c.Linear(x, w, b) })
	lead := walls[fmt.Sprintf("linear_%dx%dx%d", rows, in, out)]
	t.Logf("wall %v: linear %v, bias_add %v", wall, lead, walls["bias_add"])
	if lead < wall/2 {
		t.Errorf("linear span %v holds under half of Linear's wall %v", lead, wall)
	}
	if walls["bias_add"] > wall/10 {
		t.Errorf("bias_add span %v holds over a tenth of Linear's wall %v", walls["bias_add"], wall)
	}
}

// lstmProductsWall times LSTMSequence's products alone, the way it runs
// them (once untimed first, to warm up): the input projection over all
// B·T rows with its bias, then one recurrent product per step.
func lstmProductsWall(x, wx, wh, bias, hidden *Var) time.Duration {
	b, steps, d := x.Value.Dim(0), x.Value.Dim(1), x.Value.Dim(2)
	h, h4 := wh.Value.Dim(0), wh.Value.Dim(1)
	xp, hp := make([]float32, b*steps*h4), make([]float32, b*h4)
	run := func() time.Duration {
		c := Infer()
		t0 := time.Now()
		c.product(wx.Frozen, xp, x.Value.Data(), wx.Value.Data(), b*steps, d, h4, gemm.Epilogue{Bias: bias.Value.Data()})
		for range steps {
			clear(hp)
			c.product(wh.Frozen, hp, hidden.Value.Data(), wh.Value.Data(), b, h, h4, gemm.Epilogue{})
		}
		return time.Since(t0)
	}
	run()
	return run()
}

// TestLSTMProductsLandOnAGemmSpan requires a profiler to charge each LSTM
// step's products to the step's h·W_h linear span (the last of the specs
// emitted before them), not to the elementwise specs of its gate pass:
// the spans must hold at least half of the products' own time, measured
// alone in the same build, each side the minimum of five interleaved runs
// (pairedWalls). (A share of the sequence's wall would move with the
// build: the race detector slows the gate pass's Go loops several times
// over and leaves the GEMM kernels' assembly as it is.)
func TestLSTMProductsLandOnAGemmSpan(t *testing.T) {
	const b, steps, d, h = 32, 4, 128, 256
	g := tensor.NewRNG(72)
	x := benchVar(g, b, steps, d)
	wx, wh, bias := benchVar(g, d, 4*h), benchVar(g, h, 4*h), benchVar(g, 4*h)
	hidden := benchVar(g, b, h)
	walls, wall, products := pairedWalls(func(c *Ctx) { c.LSTMSequence(x, wx, wh, bias) },
		func() time.Duration { return lstmProductsWall(x, wx, wh, bias, hidden) })
	recur := walls[fmt.Sprintf("linear_%dx%dx%d", b, h, 4*h)]
	t.Logf("wall %v: h·W_h linear %v (the products alone %v), mul %v, bias_add %v",
		wall, recur, products, walls["mul"], walls["bias_add"])
	if recur < products/2 {
		t.Errorf("h·W_h linear spans %v hold under half of the products' own %v", recur, products)
	}
	if walls["bias_add"] > wall/10 {
		t.Errorf("bias_add spans %v hold over a tenth of LSTMSequence's wall %v", walls["bias_add"], wall)
	}
}

// convProductWall times Conv2DReLU's product alone, the way it runs it
// (once untimed first, to warm up): the implicit GEMM with the bias and
// the ReLU in its tile store.
func convProductWall(x, w, bias *Var, stride, pad int) time.Duration {
	n, ch, h, wd := x.Value.Dim(0), x.Value.Dim(1), x.Value.Dim(2), x.Value.Dim(3)
	outC, kh, kw := w.Value.Dim(0), w.Value.Dim(2), w.Value.Dim(3)
	g := gemm.ConvShape{C: ch, H: h, W: wd, KH: kh, KW: kw, Stride: stride, Pad: pad,
		OH: convOut(h, kh, stride, pad), OW: convOut(wd, kw, stride, pad)}
	dst := make([]float32, n*outC*g.OH*g.OW)
	ep := gemm.Epilogue{RowBias: bias.Value.Data(), ReLU: true}
	run := func() time.Duration {
		t0 := time.Now()
		gemm.ConvF32(Infer().engine(), dst, w.Value.Data(), x.Value.Data(), n, outC, g, ep)
		return time.Since(t0)
	}
	run()
	return run()
}

// TestConvProductLandsOnItsSpan requires a profiler to charge a conv
// block's implicit GEMM, whose tile store adds the bias and applies the
// ReLU, to the conv2d span: the span must hold at least half of the
// product's own time, measured alone in the same build (the denominator
// TestLSTMProductsLandOnAGemmSpan uses), each side the minimum of five
// interleaved runs (pairedWalls). The conv_bias and relu specs are emitted
// once the output is stored, so each must hold under a tenth of
// Conv2DReLU's wall.
func TestConvProductLandsOnItsSpan(t *testing.T) {
	const n, ch, h, w, outC, k = 2, 32, 64, 64, 64, 3
	g := tensor.NewRNG(73)
	x, wt, b := benchVar(g, n, ch, h, w), benchVar(g, outC, ch, k, k), benchVar(g, outC)
	walls, wall, product := pairedWalls(func(c *Ctx) { c.Conv2DReLU(x, wt, b, 1, 1) },
		func() time.Duration { return convProductWall(x, wt, b, 1, 1) })
	conv := walls[fmt.Sprintf("conv2d_%dx%d_c%d_o%d", k, k, ch, outC)]
	t.Logf("wall %v: conv2d %v (the product alone %v), conv_bias %v, relu %v",
		wall, conv, product, walls["conv_bias"], walls["relu"])
	if conv < product/2 {
		t.Errorf("conv2d span %v holds under half of the product's own %v", conv, product)
	}
	for _, name := range []string{"conv_bias", "relu"} {
		if walls[name] > wall/10 {
			t.Errorf("%s span %v holds over a tenth of Conv2DReLU's wall %v", name, walls[name], wall)
		}
	}
}

// TestLossPassLandsOnItsSpan requires a profiler to charge CrossEntropy's
// softmax pass to softmax_xent, the spec emitted before it, and only the
// mean over the labels to xent_mean, which follows the pass: a training
// profile must not show the softmax as Reduce-class work.
func TestLossPassLandsOnItsSpan(t *testing.T) {
	const b, k = 2048, 512
	g := tensor.NewRNG(74)
	logits := benchVar(g, b, k)
	labels := make([]int, b)
	for i := range labels {
		labels[i] = i * 7 % k
	}
	walls, wall := profiledWalls(func(c *Ctx) { c.CrossEntropy(logits, labels) })
	soft, mean := walls["softmax_xent"], walls["xent_mean"]
	t.Logf("wall %v: softmax_xent %v, xent_mean %v", wall, soft, mean)
	if soft < wall/2 {
		t.Errorf("softmax_xent span %v holds under half of CrossEntropy's wall %v", soft, wall)
	}
	if mean > wall/10 {
		t.Errorf("xent_mean span %v holds over a tenth of CrossEntropy's wall %v", mean, wall)
	}
}
