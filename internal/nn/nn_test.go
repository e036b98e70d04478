package nn

import (
	"math"
	"testing"

	"mmbench/internal/attnref"
	"mmbench/internal/autograd"
	"mmbench/internal/engine"
	"mmbench/internal/ops"
	"mmbench/internal/tensor"
)

func concrete(g *tensor.RNG, shape ...int) *ops.Var {
	t := tensor.New(shape...)
	g.Uniform(t, -1, 1)
	return autograd.NewVar(t)
}

func abstract(shape ...int) *ops.Var {
	return autograd.NewVar(tensor.NewAbstract(shape...))
}

func TestLinearShapesAndParams(t *testing.T) {
	g := tensor.NewRNG(1)
	l := NewLinear(g, 8, 3)
	out := l.Forward(ops.Infer(), concrete(g, 4, 8))
	if s := out.Value.Shape(); s[0] != 4 || s[1] != 3 {
		t.Fatalf("linear out %v", s)
	}
	if len(l.Params()) != 2 {
		t.Fatalf("linear params %d", len(l.Params()))
	}
}

func TestSequentialMLP(t *testing.T) {
	g := tensor.NewRNG(2)
	m := MLP(g, 10, 16, 4)
	out := m.Forward(ops.Infer(), concrete(g, 2, 10))
	if s := out.Value.Shape(); s[0] != 2 || s[1] != 4 {
		t.Fatalf("mlp out %v", s)
	}
	if len(m.Params()) != 4 { // 2 linears × (W,B)
		t.Fatalf("mlp params %d", len(m.Params()))
	}
}

func TestConvStack(t *testing.T) {
	g := tensor.NewRNG(3)
	m := NewSequential(
		NewConv2D(g, 1, 6, 5, 1, 2),
		ReLU(),
		MaxPool(2),
		NewConv2D(g, 6, 16, 5, 1, 0),
		ReLU(),
		MaxPool(2),
		Flatten(),
	)
	out := m.Forward(ops.Infer(), concrete(g, 2, 1, 28, 28))
	if s := out.Value.Shape(); s[0] != 2 || s[1] != 16*5*5 {
		t.Fatalf("lenet feature shape %v", s)
	}
}

func TestBatchNormModule(t *testing.T) {
	g := tensor.NewRNG(4)
	bn := NewBatchNorm2D(3)
	out := bn.Forward(ops.Infer(), concrete(g, 2, 3, 4, 4))
	if !tensor.SameShape(out.Value, tensor.New(2, 3, 4, 4)) {
		t.Fatalf("bn shape %v", out.Value.Shape())
	}
}

func TestAttentionShapes(t *testing.T) {
	g := tensor.NewRNG(5)
	mha := NewMultiHeadAttention(g, 16, 4)
	x := concrete(g, 2, 6, 16)
	out := mha.Forward(ops.Infer(), x)
	if s := out.Value.Shape(); s[0] != 2 || s[1] != 6 || s[2] != 16 {
		t.Fatalf("mha out %v", s)
	}
	// Cross attention with different sequence lengths.
	kv := concrete(g, 2, 9, 16)
	out2 := mha.Attend(ops.Infer(), x, kv)
	if s := out2.Value.Shape(); s[1] != 6 {
		t.Fatalf("cross-attention out %v", s)
	}
	if len(mha.Params()) != 8 {
		t.Fatalf("mha params %d", len(mha.Params()))
	}
}

func TestTransformerLayerAbstract(t *testing.T) {
	g := tensor.NewRNG(6)
	tl := NewTransformerLayer(g, 16, 4, 32)
	out := tl.Forward(ops.Infer(), abstract(2, 5, 16))
	if !out.Value.Abstract() {
		t.Fatal("transformer layer must stay abstract")
	}
	if s := out.Value.Shape(); s[0] != 2 || s[1] != 5 || s[2] != 16 {
		t.Fatalf("transformer abstract shape %v", s)
	}
}

func TestTransformerEncoderDepth(t *testing.T) {
	g := tensor.NewRNG(7)
	enc := NewTransformerEncoder(g, 3, 8, 2, 16)
	if len(enc.Layers) != 3 {
		t.Fatalf("depth %d", len(enc.Layers))
	}
	out := enc.Forward(ops.Infer(), concrete(g, 1, 4, 8))
	if s := out.Value.Shape(); s[2] != 8 {
		t.Fatalf("encoder out %v", s)
	}
}

func TestLSTMForward(t *testing.T) {
	g := tensor.NewRNG(8)
	l := NewLSTM(g, 5, 7)
	out := l.Forward(ops.Infer(), concrete(g, 3, 6, 5))
	if s := out.Value.Shape(); s[0] != 3 || s[1] != 7 {
		t.Fatalf("lstm out %v", s)
	}
	// Hidden state must be bounded by tanh.
	for _, v := range out.Value.Data() {
		if v < -1 || v > 1 {
			t.Fatalf("lstm hidden %v outside [-1,1]", v)
		}
	}
	// Abstract mode.
	aout := l.Forward(ops.Infer(), abstract(3, 6, 5))
	if !aout.Value.Abstract() {
		t.Fatal("lstm abstract failed")
	}
}

func TestGRUCellStep(t *testing.T) {
	g := tensor.NewRNG(9)
	cell := NewGRUCell(g, 4, 6)
	h := concrete(g, 2, 6)
	x := concrete(g, 2, 4)
	h2 := cell.Step(ops.Infer(), x, h)
	if s := h2.Value.Shape(); s[0] != 2 || s[1] != 6 {
		t.Fatalf("gru out %v", s)
	}
}

func TestEmbeddingLookup(t *testing.T) {
	g := tensor.NewRNG(10)
	e := NewEmbedding(g, 100, 8)
	out := e.Lookup(ops.Infer(), [][]int{{1, 2, 3}, {4, 5, 6}})
	if s := out.Value.Shape(); s[0] != 2 || s[1] != 3 || s[2] != 8 {
		t.Fatalf("embedding out %v", s)
	}
}

// End-to-end training smoke test: a tiny MLP must fit a linearly separable
// binary problem, proving modules, tape and optimizer-style updates compose.
func TestTinyTrainingConverges(t *testing.T) {
	g := tensor.NewRNG(11)
	model := MLP(g, 2, 8, 2)

	sampleX := tensor.New(32, 2)
	labels := make([]int, 32)
	dataRNG := tensor.NewRNG(12)
	gen := func() {
		for i := 0; i < 32; i++ {
			x0 := float32(dataRNG.Norm())
			x1 := float32(dataRNG.Norm())
			sampleX.Set(x0, i, 0)
			sampleX.Set(x1, i, 1)
			if x0+x1 > 0 {
				labels[i] = 1
			} else {
				labels[i] = 0
			}
		}
	}

	var lastLoss float32
	for epoch := 0; epoch < 60; epoch++ {
		gen()
		tape := autograd.NewTape()
		c := &ops.Ctx{Tape: tape}
		logits := model.Forward(c, autograd.NewVar(sampleX))
		loss := c.CrossEntropy(logits, labels)
		for _, p := range model.Params() {
			p.ZeroGrad()
		}
		tape.Backward(loss)
		for _, p := range model.Params() {
			p.Value.AddScaled(p.Grad, -0.2)
		}
		lastLoss = loss.Value.At(0)
	}
	if lastLoss > 0.25 {
		t.Fatalf("training did not converge: loss %v", lastLoss)
	}
	if math.IsNaN(float64(lastLoss)) {
		t.Fatal("loss is NaN")
	}
}

func TestAttentionGradientsFlow(t *testing.T) {
	g := tensor.NewRNG(13)
	tl := NewTransformerLayer(g, 8, 2, 16)
	tl.DropP = 0
	tape := autograd.NewTape()
	c := &ops.Ctx{Tape: tape}
	x := concrete(g, 1, 3, 8)
	out := tl.Forward(c, x)
	loss := c.MeanAll(c.Mul(out, out))
	tape.Backward(loss)
	nonZero := 0
	for _, p := range tl.Params() {
		if p.Grad != nil && p.Grad.MaxAbs() > 0 {
			nonZero++
		}
	}
	if nonZero < len(tl.Params())-2 {
		t.Fatalf("only %d/%d transformer params received gradients", nonZero, len(tl.Params()))
	}
}

func TestLSTMGradientsFlow(t *testing.T) {
	g := tensor.NewRNG(14)
	l := NewLSTM(g, 3, 4)
	tape := autograd.NewTape()
	c := &ops.Ctx{Tape: tape}
	x := concrete(g, 2, 5, 3)
	h := l.Forward(c, x)
	loss := c.MeanAll(c.Mul(h, h))
	tape.Backward(loss)
	for i, p := range l.Params() {
		if p.Grad == nil || p.Grad.MaxAbs() == 0 {
			t.Fatalf("lstm param %d has no gradient", i)
		}
	}
}

// referenceAttend is what Attend must match: the same WQ/WK/WV/WO
// projections around the naive float64 attention oracle with the 1/√dh
// scale, which materializes the full score matrix.
func referenceAttend(m *MultiHeadAttention, c *ops.Ctx, q, kv *ops.Var) *ops.Var {
	scale := float32(1 / math.Sqrt(float64(m.Dim/m.Heads)))
	attn := attnref.Attention(c.Tape, m.WQ.Forward(c, q), m.WK.Forward(c, kv), m.WV.Forward(c, kv), m.Heads, scale)
	return m.WO.Forward(c, attn)
}

// TestAttendMatchesReferenceComposition pins Attend's projection wiring
// and 1/√dh scale: the same weights through the reference composition
// give the same output (1e-5) and the same gradient for every parameter
// and both inputs (1e-4), for self- and cross-attention, at 1 and 4
// engine workers.
func TestAttendMatchesReferenceComposition(t *testing.T) {
	const dim, heads, batch, tq = 24, 3, 2, 7
	// run rebuilds the block and inputs from one seed, so both paths see
	// identical weights and fresh (unaccumulated) gradients.
	run := func(workers, tk int, reference bool) (out []float32, grads [][]float32) {
		g := tensor.NewRNG(41)
		m := NewMultiHeadAttention(g, dim, heads)
		q := concrete(g, batch, tq, dim)
		q.NeedGrad = true
		kv := q // self-attention
		if tk != tq {
			kv = concrete(g, batch, tk, dim)
			kv.NeedGrad = true
		}
		tape := autograd.NewTape()
		c := &ops.Ctx{Tape: tape, Eng: engine.New(workers)}
		var y *ops.Var
		if reference {
			y = referenceAttend(m, c, q, kv)
		} else {
			y = m.Attend(c, q, kv)
		}
		tape.Backward(c.MeanAll(c.Mul(y, y)))
		for _, p := range append(m.Params(), q, kv) {
			if p.Grad == nil || p.Grad.MaxAbs() == 0 {
				t.Fatalf("workers=%d tk=%d reference=%v: a parameter received no gradient", workers, tk, reference)
			}
			grads = append(grads, append([]float32(nil), p.Grad.Data()...))
		}
		return append([]float32(nil), y.Value.Data()...), grads
	}
	for _, tk := range []int{tq, 11} { // self, then cross with Tq ≠ Tk
		for _, workers := range []int{1, 4} {
			got, gotGrads := run(workers, tk, false)
			want, wantGrads := run(workers, tk, true)
			for i := range want {
				if d := math.Abs(float64(got[i] - want[i])); d > 1e-5 {
					t.Fatalf("workers=%d tk=%d: output elem %d: Attend %g vs reference %g", workers, tk, i, got[i], want[i])
				}
			}
			for p := range wantGrads {
				for i := range wantGrads[p] {
					if d := math.Abs(float64(gotGrads[p][i] - wantGrads[p][i])); d > 1e-4 {
						t.Fatalf("workers=%d tk=%d: grad %d elem %d: Attend %g vs reference %g", workers, tk, p, i, gotGrads[p][i], wantGrads[p][i])
					}
				}
			}
		}
	}
}
