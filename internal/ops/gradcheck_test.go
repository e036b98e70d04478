package ops

import (
	"math"
	"testing"

	"mmbench/internal/autograd"
	"mmbench/internal/tensor"
)

// gradCheck verifies analytic gradients of the scalar loss produced by
// build against central finite differences for every element of every
// parameter.
func gradCheck(t *testing.T, name string, params []*Var, build func(c *Ctx) *Var) {
	t.Helper()
	tape := autograd.NewTape()
	c := &Ctx{Tape: tape, RNG: tensor.NewRNG(1)}
	loss := build(c)
	if loss.Value.Size() != 1 {
		t.Fatalf("%s: loss is not scalar: %v", name, loss.Value.Shape())
	}
	tape.Backward(loss)

	const eps = 1e-2
	eval := func() float64 {
		l := build(Infer())
		return float64(l.Value.At(0))
	}
	for pi, p := range params {
		if p.Grad == nil {
			t.Fatalf("%s: param %d received no gradient", name, pi)
		}
		data := p.Value.Data()
		for i := range data {
			orig := data[i]
			data[i] = orig + eps
			up := eval()
			data[i] = orig - eps
			down := eval()
			data[i] = orig
			numeric := (up - down) / (2 * eps)
			analytic := float64(p.Grad.Data()[i])
			diff := math.Abs(numeric - analytic)
			scale := math.Max(1e-2, math.Max(math.Abs(numeric), math.Abs(analytic)))
			if diff/scale > 6e-2 {
				t.Errorf("%s: param %d elem %d: analytic %g vs numeric %g", name, pi, i, analytic, numeric)
			}
		}
	}
}

func randParam(g *tensor.RNG, shape ...int) *Var {
	t := tensor.New(shape...)
	g.Uniform(t, -0.8, 0.8)
	return autograd.Param(t)
}

func TestGradLinear(t *testing.T) {
	g := tensor.NewRNG(11)
	x := randParam(g, 3, 4)
	w := randParam(g, 4, 5)
	b := randParam(g, 5)
	gradCheck(t, "linear", []*Var{x, w, b}, func(c *Ctx) *Var {
		return c.MeanAll(c.Linear(x, w, b))
	})
}

func TestGradLinearRank3(t *testing.T) {
	g := tensor.NewRNG(12)
	x := randParam(g, 2, 3, 4)
	w := randParam(g, 4, 2)
	gradCheck(t, "linear3", []*Var{x, w}, func(c *Ctx) *Var {
		return c.MeanAll(c.Linear(x, w, nil))
	})
}

func TestGradMatMul(t *testing.T) {
	g := tensor.NewRNG(13)
	a := randParam(g, 3, 4)
	b := randParam(g, 4, 2)
	gradCheck(t, "matmul", []*Var{a, b}, func(c *Ctx) *Var {
		return c.MeanAll(c.MatMul(a, b))
	})
}

func TestGradConv2D(t *testing.T) {
	g := tensor.NewRNG(15)
	x := randParam(g, 2, 2, 5, 5)
	w := randParam(g, 3, 2, 3, 3)
	b := randParam(g, 3)
	gradCheck(t, "conv", []*Var{x, w, b}, func(c *Ctx) *Var {
		return c.MeanAll(c.Conv2D(x, w, b, 1, 1))
	})
}

func TestGradConv2DStride2NoPad(t *testing.T) {
	g := tensor.NewRNG(16)
	x := randParam(g, 1, 1, 6, 6)
	w := randParam(g, 2, 1, 2, 2)
	gradCheck(t, "conv_s2", []*Var{x, w}, func(c *Ctx) *Var {
		return c.MeanAll(c.Conv2D(x, w, nil, 2, 0))
	})
}

func TestGradPools(t *testing.T) {
	g := tensor.NewRNG(17)
	x := randParam(g, 1, 2, 4, 4)
	gradCheck(t, "maxpool", []*Var{x}, func(c *Ctx) *Var {
		return c.MeanAll(c.MaxPool2D(x, 2))
	})
	x2 := randParam(g, 1, 2, 4, 4)
	gradCheck(t, "avgpool", []*Var{x2}, func(c *Ctx) *Var {
		return c.MeanAll(c.AvgPool2D(x2, 2))
	})
	x3 := randParam(g, 2, 3, 4, 4)
	gradCheck(t, "gap", []*Var{x3}, func(c *Ctx) *Var {
		return c.MeanAll(c.GlobalAvgPool2D(x3))
	})
	x4 := randParam(g, 1, 2, 3, 3)
	gradCheck(t, "upsample", []*Var{x4}, func(c *Ctx) *Var {
		return c.MeanAll(c.Upsample2D(x4))
	})
}

func TestGradActivations(t *testing.T) {
	g := tensor.NewRNG(18)
	for _, tc := range []struct {
		name string
		f    func(c *Ctx, x *Var) *Var
	}{
		{"relu", func(c *Ctx, x *Var) *Var { return c.ReLU(x) }},
		{"sigmoid", func(c *Ctx, x *Var) *Var { return c.Sigmoid(x) }},
		{"tanh", func(c *Ctx, x *Var) *Var { return c.Tanh(x) }},
		{"gelu", func(c *Ctx, x *Var) *Var { return c.GELU(x) }},
	} {
		x := randParam(g, 2, 6)
		f := tc.f
		gradCheck(t, tc.name, []*Var{x}, func(c *Ctx) *Var {
			return c.MeanAll(f(c, x))
		})
	}
}

func TestGradAddMulScale(t *testing.T) {
	g := tensor.NewRNG(19)
	a := randParam(g, 2, 3)
	b := randParam(g, 2, 3)
	gradCheck(t, "add_mul_scale", []*Var{a, b}, func(c *Ctx) *Var {
		return c.MeanAll(c.Scale(c.Mul(c.Add(a, b), b), 1.5))
	})
}

func TestGradLayerNorm(t *testing.T) {
	g := tensor.NewRNG(20)
	x := randParam(g, 3, 6)
	gamma := randParam(g, 6)
	beta := randParam(g, 6)
	gradCheck(t, "layernorm", []*Var{x, gamma, beta}, func(c *Ctx) *Var {
		return c.MeanAll(c.Mul(c.LayerNorm(x, gamma, beta, 1e-5), c.LayerNorm(x, gamma, beta, 1e-5)))
	})
}

func TestGradShapeOps(t *testing.T) {
	g := tensor.NewRNG(21)
	a := randParam(g, 2, 4)
	b := randParam(g, 2, 3)
	gradCheck(t, "concat_slice", []*Var{a, b}, func(c *Ctx) *Var {
		cat := c.Concat(1, a, b)
		sl := c.Slice(cat, 1, 1, 6)
		return c.MeanAll(c.Mul(sl, sl))
	})
	y := randParam(g, 2, 6)
	gradCheck(t, "reshape", []*Var{y}, func(c *Ctx) *Var {
		r := c.Reshape(y, 3, 4)
		return c.MeanAll(c.Mul(r, r))
	})
}

func TestGradSoftmax(t *testing.T) {
	g := tensor.NewRNG(22)
	x := randParam(g, 2, 5)
	w := randParam(g, 5, 5)
	gradCheck(t, "softmax", []*Var{x}, func(c *Ctx) *Var {
		sm := c.Softmax(x)
		return c.MeanAll(c.Mul(sm, c.Linear(sm, Constant(w.Value), nil)))
	})
}

func TestGradCrossEntropy(t *testing.T) {
	g := tensor.NewRNG(23)
	x := randParam(g, 3, 4)
	labels := []int{0, 2, 3}
	gradCheck(t, "xent", []*Var{x}, func(c *Ctx) *Var {
		return c.CrossEntropy(x, labels)
	})
}

func TestGradBCEMSE(t *testing.T) {
	g := tensor.NewRNG(24)
	x := randParam(g, 2, 3)
	targets := tensor.Of([]int{2, 3}, 1, 0, 1, 0, 1, 0)
	gradCheck(t, "bce", []*Var{x}, func(c *Ctx) *Var {
		return c.BCEWithLogits(x, targets)
	})
	y := randParam(g, 2, 3)
	tt := tensor.New(2, 3)
	tensor.NewRNG(9).Uniform(tt, -1, 1)
	gradCheck(t, "mse", []*Var{y}, func(c *Ctx) *Var {
		return c.MSE(y, tt)
	})
}

func TestGradDice(t *testing.T) {
	g := tensor.NewRNG(25)
	x := randParam(g, 1, 1, 3, 3)
	mask := tensor.New(1, 1, 3, 3)
	for i := 0; i < 9; i += 2 {
		mask.Data()[i] = 1
	}
	gradCheck(t, "dice", []*Var{x}, func(c *Ctx) *Var {
		return c.DiceLoss(x, mask)
	})
}

func TestGradMeanAxis1(t *testing.T) {
	g := tensor.NewRNG(26)
	x := randParam(g, 2, 3, 4)
	gradCheck(t, "mean_axis1", []*Var{x}, func(c *Ctx) *Var {
		m := c.MeanAxis1(x)
		return c.MeanAll(c.Mul(m, m))
	})
}

func TestGradEmbedding(t *testing.T) {
	g := tensor.NewRNG(27)
	table := randParam(g, 5, 3)
	ids := [][]int{{0, 2}, {4, 2}}
	gradCheck(t, "embedding", []*Var{table}, func(c *Ctx) *Var {
		e := c.Embedding(table, ids)
		return c.MeanAll(c.Mul(e, e))
	})
}

func TestGradOuterFusion(t *testing.T) {
	g := tensor.NewRNG(28)
	x := randParam(g, 2, 3)
	y := randParam(g, 2, 2)
	gradCheck(t, "outer", []*Var{x, y}, func(c *Ctx) *Var {
		o := c.OuterFusion(x, y)
		return c.MeanAll(c.Mul(o, o))
	})
}
