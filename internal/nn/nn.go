// Package nn provides neural network modules built from internal/ops
// operators: layers, activations, recurrent cells, attention and
// transformer blocks. Modules own their parameters and expose them for the
// optimizer; forward passes thread the ops.Ctx so a single module tree
// serves eager training, eager inference and analytic profiling.
package nn

import (
	"mmbench/internal/autograd"
	"mmbench/internal/ops"
	"mmbench/internal/tensor"
)

// Module is a single-input single-output network component.
type Module interface {
	Forward(c *ops.Ctx, x *ops.Var) *ops.Var
	Params() []*ops.Var
}

// Sequential chains modules.
type Sequential struct {
	mods []Module
}

// NewSequential builds a chain of modules applied in order.
func NewSequential(mods ...Module) *Sequential { return &Sequential{mods: mods} }

// Append adds modules to the end of the chain.
func (s *Sequential) Append(mods ...Module) { s.mods = append(s.mods, mods...) }

// Forward applies every module in order.
func (s *Sequential) Forward(c *ops.Ctx, x *ops.Var) *ops.Var {
	for _, m := range s.mods {
		x = m.Forward(c, x)
	}
	return x
}

// Params returns the concatenated parameters of all modules.
func (s *Sequential) Params() []*ops.Var {
	var ps []*ops.Var
	for _, m := range s.mods {
		ps = append(ps, m.Params()...)
	}
	return ps
}

// Linear is a fully connected layer y = x·W + b.
type Linear struct {
	W, B *ops.Var
}

// NewLinear builds a Linear layer with Xavier-initialized weights.
func NewLinear(g *tensor.RNG, in, out int) *Linear {
	w := tensor.New(in, out)
	g.XavierUniform(w, in, out)
	return &Linear{W: autograd.Param(w), B: autograd.Param(tensor.New(out))}
}

// Forward applies the affine transform.
func (l *Linear) Forward(c *ops.Ctx, x *ops.Var) *ops.Var {
	return c.Linear(x, l.W, l.B)
}

// Params returns weight and bias.
func (l *Linear) Params() []*ops.Var { return []*ops.Var{l.W, l.B} }

// Conv2D is a 2-D convolution layer. With ReLU set its Forward is the
// convolution followed by a ReLU, run as one operator (ops.Ctx.Conv2DReLU)
// — for a layer whose output feeds nothing but the activation.
type Conv2D struct {
	W, B        *ops.Var
	Stride, Pad int
	ReLU        bool
}

// NewConv2D builds a conv layer with Kaiming-initialized weights.
func NewConv2D(g *tensor.RNG, inC, outC, kernel, stride, pad int) *Conv2D {
	w := tensor.New(outC, inC, kernel, kernel)
	g.KaimingNormal(w, inC*kernel*kernel)
	return &Conv2D{
		W:      autograd.Param(w),
		B:      autograd.Param(tensor.New(outC)),
		Stride: stride,
		Pad:    pad,
	}
}

// NewConv2DReLU builds a conv layer as NewConv2D does (the same weights
// from g) with ReLU set.
func NewConv2DReLU(g *tensor.RNG, inC, outC, kernel, stride, pad int) *Conv2D {
	l := NewConv2D(g, inC, outC, kernel, stride, pad)
	l.ReLU = true
	return l
}

// Forward applies the convolution, and the ReLU when it is set.
func (l *Conv2D) Forward(c *ops.Ctx, x *ops.Var) *ops.Var {
	if l.ReLU {
		return c.Conv2DReLU(x, l.W, l.B, l.Stride, l.Pad)
	}
	return c.Conv2D(x, l.W, l.B, l.Stride, l.Pad)
}

// Params returns weight and bias.
func (l *Conv2D) Params() []*ops.Var { return []*ops.Var{l.W, l.B} }

// BatchNorm2D normalizes NCHW activations per channel (forward/analytic
// only; see ops.BatchNorm2D).
type BatchNorm2D struct {
	Gamma, Beta *ops.Var
}

// NewBatchNorm2D builds a batch-norm layer with identity affine init.
func NewBatchNorm2D(channels int) *BatchNorm2D {
	gamma := tensor.New(channels)
	gamma.Fill(1)
	return &BatchNorm2D{Gamma: autograd.Param(gamma), Beta: autograd.Param(tensor.New(channels))}
}

// Forward applies batch normalization.
func (l *BatchNorm2D) Forward(c *ops.Ctx, x *ops.Var) *ops.Var {
	return c.BatchNorm2D(x, l.Gamma, l.Beta, 1e-5)
}

// Params returns the affine parameters.
func (l *BatchNorm2D) Params() []*ops.Var { return []*ops.Var{l.Gamma, l.Beta} }

// LayerNorm normalizes the last dimension.
type LayerNorm struct {
	Gamma, Beta *ops.Var
}

// NewLayerNorm builds a layer-norm with identity affine init.
func NewLayerNorm(dim int) *LayerNorm {
	gamma := tensor.New(dim)
	gamma.Fill(1)
	return &LayerNorm{Gamma: autograd.Param(gamma), Beta: autograd.Param(tensor.New(dim))}
}

// Forward applies layer normalization.
func (l *LayerNorm) Forward(c *ops.Ctx, x *ops.Var) *ops.Var {
	return c.LayerNorm(x, l.Gamma, l.Beta, 1e-5)
}

// Params returns the affine parameters.
func (l *LayerNorm) Params() []*ops.Var { return []*ops.Var{l.Gamma, l.Beta} }

// Stateless wraps a parameter-free transform as a Module.
type Stateless struct {
	Name string
	F    func(c *ops.Ctx, x *ops.Var) *ops.Var
}

// Forward applies the wrapped function.
func (s *Stateless) Forward(c *ops.Ctx, x *ops.Var) *ops.Var { return s.F(c, x) }

// Params returns nil.
func (s *Stateless) Params() []*ops.Var { return nil }

// ReLU returns a ReLU activation module.
func ReLU() Module {
	return &Stateless{Name: "relu", F: func(c *ops.Ctx, x *ops.Var) *ops.Var { return c.ReLU(x) }}
}

// GELU returns a GELU activation module.
func GELU() Module {
	return &Stateless{Name: "gelu", F: func(c *ops.Ctx, x *ops.Var) *ops.Var { return c.GELU(x) }}
}

// Tanh returns a tanh activation module.
func Tanh() Module {
	return &Stateless{Name: "tanh", F: func(c *ops.Ctx, x *ops.Var) *ops.Var { return c.Tanh(x) }}
}

// MaxPool returns a max-pooling module.
func MaxPool(window int) Module {
	return &Stateless{Name: "maxpool", F: func(c *ops.Ctx, x *ops.Var) *ops.Var { return c.MaxPool2D(x, window) }}
}

// GlobalAvgPool returns a spatial global-average-pooling module.
func GlobalAvgPool() Module {
	return &Stateless{Name: "gap", F: func(c *ops.Ctx, x *ops.Var) *ops.Var { return c.GlobalAvgPool2D(x) }}
}

// Flatten returns a [N,...] → [N,rest] module.
func Flatten() Module {
	return &Stateless{Name: "flatten", F: func(c *ops.Ctx, x *ops.Var) *ops.Var { return c.Flatten(x) }}
}

// Dropout returns a dropout module with probability p.
func Dropout(p float32) Module {
	return &Stateless{Name: "dropout", F: func(c *ops.Ctx, x *ops.Var) *ops.Var { return c.Dropout(x, p) }}
}

// MLP builds Linear→ReLU→…→Linear with the given layer widths.
func MLP(g *tensor.RNG, widths ...int) *Sequential {
	if len(widths) < 2 {
		panic("nn: MLP needs at least input and output widths")
	}
	s := NewSequential()
	for i := 0; i+1 < len(widths); i++ {
		s.Append(NewLinear(g, widths[i], widths[i+1]))
		if i+2 < len(widths) {
			s.Append(ReLU())
		}
	}
	return s
}
