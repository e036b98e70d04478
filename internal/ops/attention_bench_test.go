package ops

import (
	"math"
	"testing"

	"mmbench/internal/tensor"
)

// Attention benchmark shape: a long-sequence, narrow-model encoder
// layer where attention (not the projections) dominates — the regime
// the fusion targets. Materialized, the [B·H,T,T] scores and
// probabilities would be 128 MiB here; the fused kernel's never leave a
// pooled 32×64 tile.
const (
	attnBenchB     = 1
	attnBenchT     = 2048
	attnBenchD     = 64
	attnBenchHeads = 4
	attnBenchFF    = 128
)

func attnBenchInputs(seed int64) (q, k, v *Var, scale float32) {
	g := tensor.NewRNG(seed)
	dh := attnBenchD / attnBenchHeads
	return benchVar(g, attnBenchB, attnBenchT, attnBenchD),
		benchVar(g, attnBenchB, attnBenchT, attnBenchD),
		benchVar(g, attnBenchB, attnBenchT, attnBenchD),
		float32(1 / math.Sqrt(float64(dh)))
}

// BenchmarkAttentionFused is the fused streaming-softmax kernel on the
// default engine.
func BenchmarkAttentionFused(b *testing.B) {
	q, k, v, scale := attnBenchInputs(61)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Infer().Attention(q, k, v, attnBenchHeads, scale)
	}
}

// transformerLayerBench is a post-norm transformer encoder layer built
// from ops primitives (mirroring nn.TransformerLayer without importing
// it): QKV/O projections, attention, residual + layernorm, GELU MLP,
// residual + layernorm.
type transformerLayerBench struct {
	wq, wk, wv, wo *Var
	w1, w2         *Var
	g1, b1, g2, b2 *Var
}

func newTransformerLayerBench(g *tensor.RNG) *transformerLayerBench {
	return &transformerLayerBench{
		wq: benchVar(g, attnBenchD, attnBenchD),
		wk: benchVar(g, attnBenchD, attnBenchD),
		wv: benchVar(g, attnBenchD, attnBenchD),
		wo: benchVar(g, attnBenchD, attnBenchD),
		w1: benchVar(g, attnBenchD, attnBenchFF),
		w2: benchVar(g, attnBenchFF, attnBenchD),
		g1: Ones(false, attnBenchD),
		b1: benchVar(g, attnBenchD),
		g2: Ones(false, attnBenchD),
		b2: benchVar(g, attnBenchD),
	}
}

// forward runs the layer on the fused attention kernel.
func (l *transformerLayerBench) forward(c *Ctx, x *Var) *Var {
	scale := float32(1 / math.Sqrt(float64(attnBenchD/attnBenchHeads)))
	qp := c.Linear(x, l.wq, nil)
	kp := c.Linear(x, l.wk, nil)
	vp := c.Linear(x, l.wv, nil)
	att := c.Linear(c.Attention(qp, kp, vp, attnBenchHeads, scale), l.wo, nil)
	x = c.LayerNorm(c.Add(x, att), l.g1, l.b1, 1e-5)
	ff := c.Linear(c.GELU(c.Linear(x, l.w1, nil)), l.w2, nil)
	return c.LayerNorm(c.Add(x, ff), l.g2, l.b2, 1e-5)
}

// BenchmarkTransformerLayer is one encoder layer on the fused attention
// kernel.
func BenchmarkTransformerLayer(b *testing.B) {
	g := tensor.NewRNG(62)
	l := newTransformerLayerBench(g)
	x := benchVar(g, attnBenchB, attnBenchT, attnBenchD)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.forward(Infer(), x)
	}
}
