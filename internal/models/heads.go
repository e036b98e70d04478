package models

import (
	"mmbench/internal/nn"
	"mmbench/internal/ops"
	"mmbench/internal/tensor"
)

// Head maps the fused representation [B,D] to the task output.
type Head interface {
	Forward(c *ops.Ctx, fused *ops.Var) *ops.Var
	Params() []*ops.Var
}

// ClassifierHead produces class logits [B,K].
type ClassifierHead struct {
	net *nn.Sequential
}

// NewClassifierHead builds a two-layer classification head.
func NewClassifierHead(g *tensor.RNG, in, hidden, classes int) *ClassifierHead {
	return &ClassifierHead{net: nn.MLP(g, in, hidden, classes)}
}

// Forward implements Head.
func (h *ClassifierHead) Forward(c *ops.Ctx, fused *ops.Var) *ops.Var {
	return h.net.Forward(c, fused)
}

// Params implements Head.
func (h *ClassifierHead) Params() []*ops.Var { return h.net.Params() }

// RegressorHead produces continuous outputs [B,K].
type RegressorHead struct {
	net *nn.Sequential
}

// NewRegressorHead builds a two-layer regression head.
func NewRegressorHead(g *tensor.RNG, in, hidden, outDim int) *RegressorHead {
	return &RegressorHead{net: nn.MLP(g, in, hidden, outDim)}
}

// Forward implements Head.
func (h *RegressorHead) Forward(c *ops.Ctx, fused *ops.Var) *ops.Var {
	return h.net.Forward(c, fused)
}

// Params implements Head.
func (h *RegressorHead) Params() []*ops.Var { return h.net.Params() }

// SegDecoderHead expands the fused representation back to a spatial mask:
// linear → reshape → (upsample, conv, ReLU)× → 1×1 conv, producing logits
// [B,1,H,W] for the medical segmentation task.
type SegDecoderHead struct {
	lin        *nn.Linear
	convs      []*nn.Conv2D
	final      *nn.Conv2D
	c0, h0, w0 int
}

// NewSegDecoderHead builds a decoder producing H×W masks, where
// H = W = base·2^levels.
func NewSegDecoderHead(g *tensor.RNG, in, baseC, base, levels int) *SegDecoderHead {
	h := &SegDecoderHead{
		lin: nn.NewLinear(g.Split(1), in, baseC*base*base),
		c0:  baseC, h0: base, w0: base,
	}
	c := baseC
	for i := 0; i < levels; i++ {
		next := c / 2
		if next < 8 {
			next = 8
		}
		h.convs = append(h.convs, nn.NewConv2DReLU(g.Split(int64(2+i)), c, next, 3, 1, 1))
		c = next
	}
	h.final = nn.NewConv2D(g.Split(100), c, 1, 1, 1, 0)
	return h
}

// Forward implements Head.
func (h *SegDecoderHead) Forward(c *ops.Ctx, fused *ops.Var) *ops.Var {
	b := fused.Value.Dim(0)
	x := c.ReLU(h.lin.Forward(c, fused))
	x = c.Reshape(x, b, h.c0, h.h0, h.w0)
	for _, conv := range h.convs {
		x = conv.Forward(c, c.Upsample2D(x))
	}
	return h.final.Forward(c, x)
}

// Params implements Head.
func (h *SegDecoderHead) Params() []*ops.Var {
	ps := h.lin.Params()
	for _, conv := range h.convs {
		ps = append(ps, conv.Params()...)
	}
	return append(ps, h.final.Params()...)
}

// WaypointHead is TransFuser's auto-regressive GRU waypoint predictor: the
// fused features seed the hidden state, and each step feeds the previous
// waypoint back in, producing [B, steps·2] flattened waypoints.
type WaypointHead struct {
	init  *nn.Linear
	gru   *nn.GRUCell
	outWP *nn.Linear
	steps int
}

// NewWaypointHead builds a GRU waypoint head predicting the given number
// of (x, y) waypoints.
func NewWaypointHead(g *tensor.RNG, in, hidden, steps int) *WaypointHead {
	return &WaypointHead{
		init:  nn.NewLinear(g.Split(1), in, hidden),
		gru:   nn.NewGRUCell(g.Split(2), 2, hidden),
		outWP: nn.NewLinear(g.Split(3), hidden, 2),
		steps: steps,
	}
}

// Forward implements Head.
func (h *WaypointHead) Forward(c *ops.Ctx, fused *ops.Var) *ops.Var {
	b := fused.Value.Dim(0)
	hidden := c.Tanh(h.init.Forward(c, fused))
	wp := zerosLike(fused, b, 2)
	var outs []*ops.Var
	for s := 0; s < h.steps; s++ {
		hidden = h.gru.Step(c, wp, hidden)
		delta := h.outWP.Forward(c, hidden)
		wp = c.Add(wp, delta) // waypoints accumulate displacement
		outs = append(outs, wp)
	}
	return c.Concat(1, outs...)
}

// Params implements Head.
func (h *WaypointHead) Params() []*ops.Var {
	ps := h.init.Params()
	ps = append(ps, h.gru.Params()...)
	return append(ps, h.outWP.Params()...)
}
