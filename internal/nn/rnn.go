package nn

import (
	"mmbench/internal/autograd"
	"mmbench/internal/ops"
	"mmbench/internal/tensor"
)

// LSTM is a single-layer LSTM over [B,T,D] sequences. Forward returns the
// final hidden state [B,H].
type LSTM struct {
	Hidden int
	WX, WH *ops.Var // [D,4H], [H,4H]
	B      *ops.Var // [4H]
}

// NewLSTM builds an LSTM with Xavier-initialized weights.
func NewLSTM(g *tensor.RNG, in, hidden int) *LSTM {
	wx := tensor.New(in, 4*hidden)
	g.XavierUniform(wx, in, 4*hidden)
	wh := tensor.New(hidden, 4*hidden)
	g.XavierUniform(wh, hidden, 4*hidden)
	b := tensor.New(4 * hidden)
	// Positive forget-gate bias, the standard trick for gradient flow.
	for i := hidden; i < 2*hidden; i++ {
		b.Data()[i] = 1
	}
	return &LSTM{Hidden: hidden, WX: autograd.Param(wx), WH: autograd.Param(wh), B: autograd.Param(b)}
}

// Forward runs the sequence and returns the final hidden state [B,H]:
// one ops.LSTMSequence, which emits the composed steps' kernels, computes
// their bits and, under a tape, records their gradients.
func (l *LSTM) Forward(c *ops.Ctx, x *ops.Var) *ops.Var {
	return c.LSTMSequence(x, l.WX, l.WH, l.B)
}

// Params returns the LSTM weights.
func (l *LSTM) Params() []*ops.Var { return []*ops.Var{l.WX, l.WH, l.B} }

// GRUCell is a single gated recurrent unit step, used by the TransFuser
// auto-regressive waypoint predictor.
type GRUCell struct {
	Hidden int
	WX, WH *ops.Var // [D,3H], [H,3H]
	B      *ops.Var // [3H]
}

// NewGRUCell builds a GRU cell with Xavier-initialized weights.
func NewGRUCell(g *tensor.RNG, in, hidden int) *GRUCell {
	wx := tensor.New(in, 3*hidden)
	g.XavierUniform(wx, in, 3*hidden)
	wh := tensor.New(hidden, 3*hidden)
	g.XavierUniform(wh, hidden, 3*hidden)
	return &GRUCell{Hidden: hidden, WX: autograd.Param(wx), WH: autograd.Param(wh), B: autograd.Param(tensor.New(3 * hidden))}
}

// Step advances the hidden state h [B,H] by one input x [B,D].
func (g *GRUCell) Step(c *ops.Ctx, x, h *ops.Var) *ops.Var {
	hh := g.Hidden
	xp := c.Linear(x, g.WX, g.B) // [B,3H]
	hp := c.Linear(h, g.WH, nil) // [B,3H]
	r := c.Sigmoid(c.Add(c.Slice(xp, 1, 0, hh), c.Slice(hp, 1, 0, hh)))
	z := c.Sigmoid(c.Add(c.Slice(xp, 1, hh, 2*hh), c.Slice(hp, 1, hh, 2*hh)))
	n := c.Tanh(c.Add(c.Slice(xp, 1, 2*hh, 3*hh), c.Mul(r, c.Slice(hp, 1, 2*hh, 3*hh))))
	// h' = (1-z)·n + z·h = n + z·(h-n)
	diff := c.Add(h, c.Scale(n, -1))
	return c.Add(n, c.Mul(z, diff))
}

// Params returns the GRU weights.
func (g *GRUCell) Params() []*ops.Var { return []*ops.Var{g.WX, g.WH, g.B} }

// Embedding maps integer token ids to dense vectors.
type Embedding struct {
	Table *ops.Var // [V,D]
}

// NewEmbedding builds an embedding table with N(0, 0.02) init.
func NewEmbedding(g *tensor.RNG, vocab, dim int) *Embedding {
	t := tensor.New(vocab, dim)
	g.Normal(t, 0, 0.02)
	return &Embedding{Table: autograd.Param(t)}
}

// Lookup embeds a [B][T] id batch to [B,T,D].
func (e *Embedding) Lookup(c *ops.Ctx, ids [][]int) *ops.Var {
	return c.Embedding(e.Table, ids)
}

// Params returns the table.
func (e *Embedding) Params() []*ops.Var { return []*ops.Var{e.Table} }
