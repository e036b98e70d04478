// Package fusion implements the multi-modal fusion operators of the
// paper's Table 1 — Zero, Sum, Concat, Tensor (outer product), Attention
// and LinearGLU — plus the transformer fusion and LSTM late fusion used by
// several MMBench workloads.
//
// Every fusion consumes one feature vector per modality ([B, Dᵢ]) and
// produces a single fused representation [B, OutDim].
package fusion

import (
	"fmt"
	"math"

	"mmbench/internal/autograd"
	"mmbench/internal/nn"
	"mmbench/internal/ops"
	"mmbench/internal/tensor"
)

// Fusion federates per-modality feature vectors into one representation.
type Fusion interface {
	// Name identifies the fusion method ("concat", "tensor", ...).
	Name() string
	// Fuse combines feats (one [B, Dᵢ] Var per modality) into [B, OutDim].
	Fuse(c *ops.Ctx, feats []*ops.Var) *ops.Var
	// OutDim is the fused feature width.
	OutDim() int
	// Params returns trainable parameters.
	Params() []*ops.Var
}

// Methods lists all registered fusion method names.
func Methods() []string {
	return []string{"zero", "sum", "concat", "tensor", "attention", "glu", "transformer", "lf"}
}

// Config scales the internal richness of the fusion networks.
//
// The trainable default keeps fusions small so Figure 4/5 training runs in
// seconds. The profile configuration matches the paper-scale fusion
// networks: MulT-style transformer fusion runs several layers over a
// multi-token sequence per modality, which is why the paper measures
// fusion *exceeding* encoder time on MuJoCo Push and Vision & Touch.
type Config struct {
	// Dim is the fusion model width.
	Dim int
	// TokensPer is the number of tokens each modality contributes to
	// sequence fusions (attention, transformer, lf).
	TokensPer int
	// Depth is the transformer fusion layer count.
	Depth int
	// Hidden, when non-zero, inserts a wide hidden layer into the concat
	// fusion (the "slfs" style multi-modal implementations with many
	// times the uni-modal parameter count).
	Hidden int
	// TensorProj is the per-modality projection width of the tensor
	// (outer product) fusion for two modalities.
	TensorProj int
}

// DefaultConfig is the small trainable configuration.
func DefaultConfig() Config { return Config{Dim: 64, TokensPer: 1, Depth: 2, TensorProj: 16} }

// ProfileConfig is the paper-scale configuration for workloads with heavy
// fusion networks (MuJoCo Push, Vision & Touch, the medical tasks and
// TransFuser).
func ProfileConfig() Config {
	return Config{Dim: 192, TokensPer: 16, Depth: 4, Hidden: 1024, TensorProj: 48}
}

// LightProfileConfig is the paper-scale configuration for workloads whose
// fusion stays far cheaper than their encoders (AV-MNIST, MM-IMDB,
// CMU-MOSEI, MUStARD).
func LightProfileConfig() Config {
	return Config{Dim: 96, TokensPer: 2, Depth: 2, Hidden: 1024, TensorProj: 48}
}

// New builds the named fusion with the trainable default configuration.
func New(method string, g *tensor.RNG, inDims []int, outDim int) (Fusion, error) {
	return NewWithConfig(method, g, inDims, outDim, DefaultConfig())
}

// NewWithConfig builds the named fusion for modalities with the given
// input dims. outDim is the fused width every method must produce.
func NewWithConfig(method string, g *tensor.RNG, inDims []int, outDim int, cfg Config) (Fusion, error) {
	if len(inDims) == 0 {
		return nil, fmt.Errorf("fusion: no modalities")
	}
	if outDim <= 0 {
		return nil, fmt.Errorf("fusion: non-positive out dim %d", outDim)
	}
	if cfg.Dim <= 0 {
		cfg.Dim = 64
	}
	if cfg.TokensPer <= 0 {
		cfg.TokensPer = 1
	}
	if cfg.Depth <= 0 {
		cfg.Depth = 2
	}
	switch method {
	case "zero":
		return NewZero(outDim), nil
	case "sum":
		return NewSum(g, inDims, outDim), nil
	case "concat":
		return NewConcatCfg(g, inDims, outDim, cfg.Hidden), nil
	case "tensor":
		return NewTensorCfg(g, inDims, outDim, cfg), nil
	case "attention":
		return NewAttentionCfg(g, inDims, outDim, cfg), nil
	case "glu":
		return NewGLU(g, inDims, outDim), nil
	case "transformer":
		return NewTransformerCfg(g, inDims, outDim, cfg), nil
	case "lf":
		return NewLateLSTMCfg(g, inDims, outDim, cfg), nil
	}
	return nil, fmt.Errorf("fusion: unknown method %q (want one of %v)", method, Methods())
}

func checkFeats(name string, want int, feats []*ops.Var) {
	if len(feats) != want {
		panic(fmt.Sprintf("fusion %s: got %d modalities, want %d", name, len(feats), want))
	}
}

// projections builds one Linear per modality mapping Dᵢ → dim.
func projections(g *tensor.RNG, inDims []int, dim int) []*nn.Linear {
	ps := make([]*nn.Linear, len(inDims))
	for i, d := range inDims {
		ps[i] = nn.NewLinear(g.Split(int64(i)), d, dim)
	}
	return ps
}

func projParams(ps []*nn.Linear) []*ops.Var {
	var out []*ops.Var
	for _, p := range ps {
		out = append(out, p.Params()...)
	}
	return out
}

// stackTokens projects each modality feature into tokensPer tokens of
// width dim and stacks them as a [B, M·tokensPer, dim] sequence.
func stackTokens(c *ops.Ctx, projs []*nn.Linear, feats []*ops.Var, dim, tokensPer int) *ops.Var {
	b := feats[0].Value.Dim(0)
	tokens := make([]*ops.Var, len(feats))
	for i, f := range feats {
		tokens[i] = c.Reshape(projs[i].Forward(c, f), b, tokensPer, dim)
	}
	return c.Concat(1, tokens...)
}

// Zero discards all modality features (Table 1's degenerate baseline).
type Zero struct{ dim int }

// NewZero builds the zero fusion.
func NewZero(outDim int) *Zero { return &Zero{dim: outDim} }

// Name implements Fusion.
func (z *Zero) Name() string { return "zero" }

// OutDim implements Fusion.
func (z *Zero) OutDim() int { return z.dim }

// Params implements Fusion.
func (z *Zero) Params() []*ops.Var { return nil }

// Fuse returns a zero tensor, discarding every feature. The fused graph is
// disconnected from the encoders by design, so no gradient reaches them —
// exactly what "discard" means.
func (z *Zero) Fuse(c *ops.Ctx, feats []*ops.Var) *ops.Var {
	if len(feats) == 0 {
		panic("fusion zero: no modalities")
	}
	b := feats[0].Value.Dim(0)
	if feats[0].Value.Abstract() {
		return autograd.NewVar(tensor.NewAbstract(b, z.dim))
	}
	return autograd.NewVar(tensor.New(b, z.dim))
}

// Sum projects every modality to the output width and adds them
// element-wise (Table 1's x + y).
type Sum struct {
	projs []*nn.Linear
	dim   int
}

// NewSum builds the sum fusion.
func NewSum(g *tensor.RNG, inDims []int, outDim int) *Sum {
	return &Sum{projs: projections(g, inDims, outDim), dim: outDim}
}

// Name implements Fusion.
func (s *Sum) Name() string { return "sum" }

// OutDim implements Fusion.
func (s *Sum) OutDim() int { return s.dim }

// Params implements Fusion.
func (s *Sum) Params() []*ops.Var { return projParams(s.projs) }

// Fuse adds the projected features.
func (s *Sum) Fuse(c *ops.Ctx, feats []*ops.Var) *ops.Var {
	checkFeats("sum", len(s.projs), feats)
	out := s.projs[0].Forward(c, feats[0])
	for i := 1; i < len(feats); i++ {
		out = c.Add(out, s.projs[i].Forward(c, feats[i]))
	}
	return out
}

// Concat concatenates features and applies ReLU(concat·W + b)
// (Table 1's Concat operator). An optional wide hidden layer models the
// parameter-heavy "slfs" late-fusion implementations.
type Concat struct {
	lin    *nn.Linear
	hidden *nn.Linear // nil without a hidden layer
	dim    int
	n      int
}

// NewConcat builds the concat fusion without a hidden layer.
func NewConcat(g *tensor.RNG, inDims []int, outDim int) *Concat {
	return NewConcatCfg(g, inDims, outDim, 0)
}

// NewConcatCfg builds the concat fusion; hidden > 0 inserts a wide hidden
// layer.
func NewConcatCfg(g *tensor.RNG, inDims []int, outDim, hidden int) *Concat {
	total := 0
	for _, d := range inDims {
		total += d
	}
	f := &Concat{dim: outDim, n: len(inDims)}
	if hidden > 0 {
		f.hidden = nn.NewLinear(g, total, hidden)
		f.lin = nn.NewLinear(g.Split(2), hidden, outDim)
	} else {
		f.lin = nn.NewLinear(g, total, outDim)
	}
	return f
}

// Name implements Fusion.
func (f *Concat) Name() string { return "concat" }

// OutDim implements Fusion.
func (f *Concat) OutDim() int { return f.dim }

// Params implements Fusion.
func (f *Concat) Params() []*ops.Var {
	if f.hidden != nil {
		return append(f.hidden.Params(), f.lin.Params()...)
	}
	return f.lin.Params()
}

// Fuse concatenates and projects with a ReLU.
func (f *Concat) Fuse(c *ops.Ctx, feats []*ops.Var) *ops.Var {
	checkFeats("concat", f.n, feats)
	x := c.Concat(1, feats...)
	if f.hidden != nil {
		x = c.ReLU(f.hidden.Forward(c, x))
	}
	return c.ReLU(f.lin.Forward(c, x))
}

// Tensor computes outer-product fusion (Table 1's x ⊗ y): each modality is
// projected to a small width, the augmented outer products are folded
// left-to-right, and the result is projected to the output width.
type Tensor struct {
	projs   []*nn.Linear
	lin     *nn.Linear
	projDim int
	dim     int
}

// NewTensor builds the tensor (outer-product) fusion with the default
// configuration.
func NewTensor(g *tensor.RNG, inDims []int, outDim int) *Tensor {
	return NewTensorCfg(g, inDims, outDim, DefaultConfig())
}

// NewTensorCfg builds the tensor (outer-product) fusion.
func NewTensorCfg(g *tensor.RNG, inDims []int, outDim int, cfg Config) *Tensor {
	projDim := cfg.TensorProj
	if projDim <= 0 {
		projDim = 16
	}
	if len(inDims) > 2 {
		projDim = 8 // keep the folded outer-product tractable
	}
	// The fold produces ((…(p ⊗ p) ⊗ p)…): track the exact flat width.
	flat := projDim
	if len(inDims) == 1 {
		flat = (projDim + 1) * (projDim + 1)
	}
	for i := 1; i < len(inDims); i++ {
		flat = (flat + 1) * (projDim + 1)
	}
	return &Tensor{
		projs:   projections(g, inDims, projDim),
		lin:     nn.NewLinear(g.Split(97), flat, outDim),
		projDim: projDim,
		dim:     outDim,
	}
}

// Name implements Fusion.
func (f *Tensor) Name() string { return "tensor" }

// OutDim implements Fusion.
func (f *Tensor) OutDim() int { return f.dim }

// Params implements Fusion.
func (f *Tensor) Params() []*ops.Var {
	return append(projParams(f.projs), f.lin.Params()...)
}

// Fuse folds augmented outer products across modalities.
func (f *Tensor) Fuse(c *ops.Ctx, feats []*ops.Var) *ops.Var {
	checkFeats("tensor", len(f.projs), feats)
	acc := f.projs[0].Forward(c, feats[0])
	if len(feats) == 1 {
		// Degenerate single-modality case: outer with itself.
		acc = c.OuterFusion(acc, acc)
	}
	for i := 1; i < len(feats); i++ {
		acc = c.OuterFusion(acc, f.projs[i].Forward(c, feats[i]))
	}
	// Outer products inflate feature magnitudes multiplicatively;
	// normalize before projecting (and touch the full fused tensor —
	// the DRAM-heavy element-wise pass of the paper's Figure 9b).
	acc = c.Scale(acc, float32(1/math.Sqrt(float64(f.projDim+1))))
	return f.lin.Forward(c, acc)
}

// Attention fuses modalities with one multi-head self-attention round over
// the modality tokens (Table 1's Softmax(xyᵀ/√C) attention operator).
type Attention struct {
	projs  []*nn.Linear
	mha    *nn.MultiHeadAttention
	lin    *nn.Linear
	dim    int
	mDim   int
	tokens int
}

// NewAttentionCfg builds the attention fusion.
func NewAttentionCfg(g *tensor.RNG, inDims []int, outDim int, cfg Config) *Attention {
	d := cfg.Dim
	return &Attention{
		projs:  projections(g, inDims, d*cfg.TokensPer),
		mha:    nn.NewMultiHeadAttention(g.Split(11), d, 4),
		lin:    nn.NewLinear(g.Split(12), d, outDim),
		dim:    outDim,
		mDim:   d,
		tokens: cfg.TokensPer,
	}
}

// Name implements Fusion.
func (f *Attention) Name() string { return "attention" }

// OutDim implements Fusion.
func (f *Attention) OutDim() int { return f.dim }

// Params implements Fusion.
func (f *Attention) Params() []*ops.Var {
	ps := projParams(f.projs)
	ps = append(ps, f.mha.Params()...)
	return append(ps, f.lin.Params()...)
}

// Fuse attends over the modality tokens and mean-pools.
func (f *Attention) Fuse(c *ops.Ctx, feats []*ops.Var) *ops.Var {
	checkFeats("attention", len(f.projs), feats)
	seq := stackTokens(c, f.projs, feats, f.mDim, f.tokens)
	att := f.mha.Forward(c, seq)
	return f.lin.Forward(c, c.MeanAxis1(att))
}

// GLU implements Table 1's LinearGLU: xW₁ ⊙ σ(yW₂), folded pairwise for
// three or more modalities.
type GLU struct {
	projs []*nn.Linear
	gates []*nn.Linear
	dim   int
}

// NewGLU builds the gated-linear-unit fusion.
func NewGLU(g *tensor.RNG, inDims []int, outDim int) *GLU {
	f := &GLU{dim: outDim}
	f.projs = projections(g, inDims, outDim)
	f.gates = projections(g.Split(31), inDims, outDim)
	return f
}

// Name implements Fusion.
func (f *GLU) Name() string { return "glu" }

// OutDim implements Fusion.
func (f *GLU) OutDim() int { return f.dim }

// Params implements Fusion.
func (f *GLU) Params() []*ops.Var {
	return append(projParams(f.projs), projParams(f.gates)...)
}

// Fuse gates each projected modality by the next modality's sigmoid gate.
func (f *GLU) Fuse(c *ops.Ctx, feats []*ops.Var) *ops.Var {
	checkFeats("glu", len(f.projs), feats)
	out := f.projs[0].Forward(c, feats[0])
	for i := 1; i < len(feats); i++ {
		gate := c.Sigmoid(f.gates[i].Forward(c, feats[i]))
		out = c.Mul(out, gate)
	}
	if len(feats) == 1 {
		out = c.Mul(out, c.Sigmoid(f.gates[0].Forward(c, feats[0])))
	}
	return out
}

// Transformer fuses modalities with a transformer encoder over the
// modality tokens — the multi-modal transformer fusion used by CMU-MOSEI,
// MUStARD, Medical VQA/Seg., MuJoCo Push and TransFuser.
type Transformer struct {
	projs  []*nn.Linear
	enc    *nn.TransformerEncoder
	lin    *nn.Linear
	dim    int
	mDim   int
	tokens int
}

// NewTransformer builds a transformer fusion of the given depth with
// default width and token count.
func NewTransformer(g *tensor.RNG, inDims []int, outDim, depth int) *Transformer {
	cfg := DefaultConfig()
	cfg.Depth = depth
	return NewTransformerCfg(g, inDims, outDim, cfg)
}

// NewTransformerCfg builds a transformer fusion.
func NewTransformerCfg(g *tensor.RNG, inDims []int, outDim int, cfg Config) *Transformer {
	d := cfg.Dim
	return &Transformer{
		projs:  projections(g, inDims, d*cfg.TokensPer),
		enc:    nn.NewTransformerEncoder(g.Split(41), cfg.Depth, d, 4, 2*d),
		lin:    nn.NewLinear(g.Split(42), d, outDim),
		dim:    outDim,
		mDim:   d,
		tokens: cfg.TokensPer,
	}
}

// Name implements Fusion.
func (f *Transformer) Name() string { return "transformer" }

// OutDim implements Fusion.
func (f *Transformer) OutDim() int { return f.dim }

// Params implements Fusion.
func (f *Transformer) Params() []*ops.Var {
	ps := projParams(f.projs)
	ps = append(ps, f.enc.Params()...)
	return append(ps, f.lin.Params()...)
}

// Fuse runs the transformer over modality tokens and mean-pools.
func (f *Transformer) Fuse(c *ops.Ctx, feats []*ops.Var) *ops.Var {
	checkFeats("transformer", len(f.projs), feats)
	seq := stackTokens(c, f.projs, feats, f.mDim, f.tokens)
	enc := f.enc.Forward(c, seq)
	return f.lin.Forward(c, c.MeanAxis1(enc))
}

// LateLSTM implements LSTM-based late fusion: modality features form a
// short sequence consumed by an LSTM whose final hidden state is the fused
// representation (the "LF" variants of Figure 4).
type LateLSTM struct {
	projs  []*nn.Linear
	lstm   *nn.LSTM
	dim    int
	mDim   int
	tokens int
}

// NewLateLSTMCfg builds the late-fusion LSTM.
func NewLateLSTMCfg(g *tensor.RNG, inDims []int, outDim int, cfg Config) *LateLSTM {
	return &LateLSTM{
		projs:  projections(g, inDims, cfg.Dim*cfg.TokensPer),
		lstm:   nn.NewLSTM(g.Split(51), cfg.Dim, outDim),
		dim:    outDim,
		mDim:   cfg.Dim,
		tokens: cfg.TokensPer,
	}
}

// Name implements Fusion.
func (f *LateLSTM) Name() string { return "lf" }

// OutDim implements Fusion.
func (f *LateLSTM) OutDim() int { return f.dim }

// Params implements Fusion.
func (f *LateLSTM) Params() []*ops.Var {
	return append(projParams(f.projs), f.lstm.Params()...)
}

// Fuse runs the LSTM over the modality token sequence.
func (f *LateLSTM) Fuse(c *ops.Ctx, feats []*ops.Var) *ops.Var {
	checkFeats("lf", len(f.projs), feats)
	seq := stackTokens(c, f.projs, feats, f.mDim, f.tokens)
	return f.lstm.Forward(c, seq)
}
