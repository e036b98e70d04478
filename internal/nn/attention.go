package nn

import (
	"math"

	"mmbench/internal/ops"
	"mmbench/internal/tensor"
)

// MultiHeadAttention implements scaled dot-product attention with H heads
// over a model dimension D. It supports self-attention (kv == q) and
// cross-attention (kv from another sequence).
type MultiHeadAttention struct {
	Heads          int
	Dim            int
	WQ, WK, WV, WO *Linear
}

// NewMultiHeadAttention builds an attention block.
func NewMultiHeadAttention(g *tensor.RNG, dim, heads int) *MultiHeadAttention {
	if dim%heads != 0 {
		panic("nn: attention dim must be divisible by heads")
	}
	return &MultiHeadAttention{
		Heads: heads,
		Dim:   dim,
		WQ:    NewLinear(g, dim, dim),
		WK:    NewLinear(g, dim, dim),
		WV:    NewLinear(g, dim, dim),
		WO:    NewLinear(g, dim, dim),
	}
}

// Attend computes attention of query sequence q [B,Tq,D] over key/value
// sequence kv [B,Tk,D] with the fused streaming-softmax kernel
// (ops.Attention), which never materializes the [B·H,Tq,Tk] score
// matrix. The tests pin it to the split-heads reference composition
// within 1e-5.
func (m *MultiHeadAttention) Attend(c *ops.Ctx, q, kv *ops.Var) *ops.Var {
	dh := m.Dim / m.Heads
	scale := float32(1 / math.Sqrt(float64(dh)))
	qp := m.WQ.Forward(c, q)  // [B, Tq, D]
	kp := m.WK.Forward(c, kv) // [B, Tk, D]
	vp := m.WV.Forward(c, kv)
	return m.WO.Forward(c, c.Attention(qp, kp, vp, m.Heads, scale))
}

// Forward applies self-attention.
func (m *MultiHeadAttention) Forward(c *ops.Ctx, x *ops.Var) *ops.Var {
	return m.Attend(c, x, x)
}

// Params returns all projection parameters.
func (m *MultiHeadAttention) Params() []*ops.Var {
	var ps []*ops.Var
	for _, l := range []*Linear{m.WQ, m.WK, m.WV, m.WO} {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// TransformerLayer is a post-norm transformer encoder layer: self-attention
// and a GELU MLP, each with a residual connection and layer norm.
type TransformerLayer struct {
	Attn     *MultiHeadAttention
	FF1, FF2 *Linear
	LN1, LN2 *LayerNorm
	DropP    float32
}

// NewTransformerLayer builds a transformer encoder layer with the given
// model dimension, head count and feed-forward expansion width.
func NewTransformerLayer(g *tensor.RNG, dim, heads, ffDim int) *TransformerLayer {
	return &TransformerLayer{
		Attn:  NewMultiHeadAttention(g, dim, heads),
		FF1:   NewLinear(g, dim, ffDim),
		FF2:   NewLinear(g, ffDim, dim),
		LN1:   NewLayerNorm(dim),
		LN2:   NewLayerNorm(dim),
		DropP: 0.1,
	}
}

// Forward applies the layer to a [B,T,D] sequence.
func (l *TransformerLayer) Forward(c *ops.Ctx, x *ops.Var) *ops.Var {
	att := c.Dropout(l.Attn.Forward(c, x), l.DropP)
	x = l.LN1.Forward(c, c.Add(x, att))
	ff := l.FF2.Forward(c, c.GELU(l.FF1.Forward(c, x)))
	ff = c.Dropout(ff, l.DropP)
	return l.LN2.Forward(c, c.Add(x, ff))
}

// Params returns all layer parameters.
func (l *TransformerLayer) Params() []*ops.Var {
	ps := l.Attn.Params()
	ps = append(ps, l.FF1.Params()...)
	ps = append(ps, l.FF2.Params()...)
	ps = append(ps, l.LN1.Params()...)
	ps = append(ps, l.LN2.Params()...)
	return ps
}

// TransformerEncoder stacks transformer layers.
type TransformerEncoder struct {
	Layers []*TransformerLayer
}

// NewTransformerEncoder builds a stack of depth transformer layers.
func NewTransformerEncoder(g *tensor.RNG, depth, dim, heads, ffDim int) *TransformerEncoder {
	enc := &TransformerEncoder{}
	for i := 0; i < depth; i++ {
		enc.Layers = append(enc.Layers, NewTransformerLayer(g.Split(int64(i)), dim, heads, ffDim))
	}
	return enc
}

// Forward applies every layer in order.
func (e *TransformerEncoder) Forward(c *ops.Ctx, x *ops.Var) *ops.Var {
	for _, l := range e.Layers {
		x = l.Forward(c, x)
	}
	return x
}

// Params returns all stack parameters.
func (e *TransformerEncoder) Params() []*ops.Var {
	var ps []*ops.Var
	for _, l := range e.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}
