package nn

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"mmbench/internal/autograd"
	"mmbench/internal/engine"
	"mmbench/internal/gemm"
	"mmbench/internal/kernels"
	"mmbench/internal/ops"
	"mmbench/internal/precision"
	"mmbench/internal/tensor"
)

// specLog records the kernel stream of a forward.
type specLog struct{ specs []kernels.Spec }

func (r *specLog) Kernel(s kernels.Spec)          { r.specs = append(r.specs, s) }
func (r *specLog) Host(string, int64, int64, int) {}

// lstmCase is one point of the LSTMSequence checks: a b×t×d input into
// hidden width h, run on an untaped encoder context at precision p over
// request segments segs (nil: a lone request), with private or frozen
// weights.
type lstmCase struct {
	b, t, d, h int
	p          precision.Type
	segs       []int
	frozen     bool
}

func (k lstmCase) String() string {
	return fmt.Sprintf("B%d T%d D%d H%d %s segments %v frozen %v", k.b, k.t, k.d, k.h, k.p, k.segs, k.frozen)
}

func (k lstmCase) ctx(e *engine.Engine, rec ops.Recorder) *ops.Ctx {
	c := &ops.Ctx{Eng: e, Rec: rec, Precision: precision.Policy{Encoder: k.p}, Segments: k.segs}
	c.EnterStage(precision.StageEncoder, "audio")
	return c
}

// lstmCases spans batch 1–3, a two-segment merged batch, f32, f16 and
// i8, private and frozen (kept-panel) weights, one step and several, and
// hidden widths whose 4H is a partial B panel (4·7 = 28) or eight full
// ones (4·32 = 128, two groups of the one-panel kernel's four).
func lstmCases() []lstmCase {
	var cs []lstmCase
	for _, p := range []precision.Type{precision.F32, precision.F16, precision.I8} {
		for _, dh := range [][2]int{{5, 7}, {35, 32}} {
			for b := 1; b <= 3; b++ {
				for _, frozen := range []bool{false, true} {
					cs = append(cs, lstmCase{b: b, t: 6, d: dh[0], h: dh[1], p: p, frozen: frozen})
				}
			}
			cs = append(cs,
				lstmCase{b: 3, t: 6, d: dh[0], h: dh[1], p: p, segs: []int{1, 2}},
				lstmCase{b: 2, t: 1, d: dh[0], h: dh[1], p: p, frozen: true})
		}
	}
	return cs
}

// lstmFor builds the case's LSTM and an input over [-3, 3), so gates
// reach the activations' saturated ends.
func lstmFor(k lstmCase) (*LSTM, *ops.Var) {
	g := tensor.NewRNG(int64(31 + k.b + k.h))
	l := NewLSTM(g, k.d, k.h)
	g.Uniform(l.B.Value, -1, 1)
	if k.frozen {
		l.WX.Frozen, l.WH.Frozen = gemm.NewPackedB(nil), gemm.NewPackedB(nil)
	}
	x := tensor.New(k.b, k.t, k.d)
	g.Uniform(x, -3, 3)
	return l, autograd.NewVar(x)
}

// TestLSTMSequenceMatchesComposedSteps pins the sequence operator to the
// composed step it replaces without a tape: the same kernel spec stream
// (names, classes, precision bits, order) for abstract and concrete
// inputs, and the same output bits, at 1 and 3 workers, for every case
// of lstmCases — the i8 merged batch included, whose activation scales
// calibrate per request segment at every step.
func TestLSTMSequenceMatchesComposedSteps(t *testing.T) {
	engines := []*engine.Engine{engine.New(1), engine.New(3)}
	defer func() {
		for _, e := range engines {
			e.Close()
		}
	}()
	for _, k := range lstmCases() {
		l, x := lstmFor(k)
		for _, in := range []*ops.Var{x, autograd.NewVar(tensor.NewAbstract(k.b, k.t, k.d))} {
			var seq, comp specLog
			got := l.Forward(k.ctx(engines[0], &seq), in)
			want := l.composed(k.ctx(engines[0], &comp), in)
			if len(seq.specs) != 18*k.t || !reflect.DeepEqual(seq.specs, comp.specs) {
				t.Fatalf("%v abstract %v: the sequence emits %d specs, the composed steps %d; first difference %s",
					k, in.Value.Abstract(), len(seq.specs), len(comp.specs), firstSpecDiff(seq.specs, comp.specs))
			}
			if in.Value.Abstract() {
				if !got.Value.Abstract() || !reflect.DeepEqual(got.Value.Shape(), want.Value.Shape()) {
					t.Fatalf("%v: abstract output %v, the composed steps give %v", k, got.Value.Shape(), want.Value.Shape())
				}
				continue
			}
			for _, e := range engines {
				got := l.Forward(k.ctx(e, nil), in).Value.Data()
				for i, w := range want.Value.Data() {
					if math.Float32bits(got[i]) != math.Float32bits(w) {
						t.Fatalf("%v, %d workers: h[%d] = %g, the composed steps give %g", k, e.Workers(), i, got[i], w)
					}
				}
			}
		}
	}
}

func firstSpecDiff(a, b []kernels.Spec) string {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return fmt.Sprintf("at %d: %+v against %+v", i, a[i], b[i])
		}
	}
	return "past the shorter stream"
}

// lstmGrads runs case k's LSTM under a tape on e — the sequence operator,
// or the composed steps — with x a parameter when xGrad, and returns its
// output and the gradients of W_x, W_h, the bias and (when xGrad) x. Every
// gradient accumulates onto −0, and the loss weighs each output by its
// own factor in [-1, 1), the first half of the hidden units' zero: with
// one step their gate gradients are zeros, whose signs the bias gradient
// keeps.
func lstmGrads(k lstmCase, e *engine.Engine, xGrad, composed bool) [][]float32 {
	l, x := lstmFor(k)
	x.NeedGrad = xGrad
	for _, p := range []*ops.Var{x, l.WX, l.WH, l.B} {
		p.Grad = tensor.New(p.Value.Shape()...)
		p.Grad.Fill(float32(math.Copysign(0, -1)))
	}
	c := k.ctx(e, nil)
	c.Tape = autograd.NewTape()
	var h *ops.Var
	if composed {
		h = l.composed(c, x)
	} else {
		h = l.Forward(c, x)
	}
	r := tensor.New(k.b, k.h)
	tensor.NewRNG(int64(k.t)).Uniform(r, -1, 1)
	for bi := 0; bi < k.b; bi++ {
		clear(r.Data()[bi*k.h:][:k.h/2])
	}
	c.Tape.Backward(c.MeanAll(c.Mul(h, ops.Constant(r))))
	grads := [][]float32{h.Value.Data(), l.WX.Grad.Data(), l.WH.Grad.Data(), l.B.Grad.Data()}
	if xGrad {
		grads = append(grads, x.Grad.Data())
	}
	return grads
}

// TestLSTMSequenceGradientsMatchComposedSteps is the taped companion of
// TestLSTMSequenceMatchesComposedSteps: under a tape the sequence's
// output and the gradients it leaves on W_x, W_h, the bias and x equal
// the composed steps' bit for bit, at 1 and 3 workers, for every case of
// lstmCases on private weights (frozen ones cannot train), with x a
// parameter and a plain input.
func TestLSTMSequenceGradientsMatchComposedSteps(t *testing.T) {
	engines := []*engine.Engine{engine.New(1), engine.New(3)}
	defer func() {
		for _, e := range engines {
			e.Close()
		}
	}()
	for _, k := range lstmCases() {
		if k.frozen && k.t > 1 {
			continue // lstmCases has this case on private weights too
		}
		k.frozen = false
		for _, xGrad := range []bool{false, true} {
			want := lstmGrads(k, engines[0], xGrad, true)
			for _, e := range engines {
				got := lstmGrads(k, e, xGrad, false)
				for i, what := range []string{"h", "W_x gradient", "W_h gradient", "bias gradient", "x gradient"}[:len(want)] {
					for j, w := range want[i] {
						if math.Float32bits(got[i][j]) != math.Float32bits(w) {
							t.Fatalf("%v, x parameter %v, %d workers: %s[%d] = %g, the composed steps give %g",
								k, xGrad, e.Workers(), what, j, got[i][j], w)
						}
					}
				}
			}
		}
	}
}

// zerosLike returns a zero state matching the abstractness of ref.
func zerosLike(ref *ops.Var, shape ...int) *ops.Var {
	if ref.Value.Abstract() {
		return autograd.NewVar(tensor.NewAbstract(shape...))
	}
	return autograd.NewVar(tensor.New(shape...))
}

// composed is the oracle LSTMSequence is pinned to: the sequence one step
// at a time from zero state, each step composed from Linear, Add, Slice,
// the activations and Mul, whose own tape steps record the backward.
func (l *LSTM) composed(c *ops.Ctx, x *ops.Var) *ops.Var {
	b, t := x.Value.Dim(0), x.Value.Dim(1)
	h := zerosLike(x, b, l.Hidden)
	cell := zerosLike(x, b, l.Hidden)
	for ti := 0; ti < t; ti++ {
		xt := c.Reshape(c.Slice(x, 1, ti, ti+1), b, x.Value.Dim(2))
		h, cell = l.step(c, xt, h, cell)
	}
	return h
}

// step advances one timestep.
func (l *LSTM) step(c *ops.Ctx, xt, h, cell *ops.Var) (*ops.Var, *ops.Var) {
	hh := l.Hidden
	gates := c.Add(c.Linear(xt, l.WX, l.B), c.Linear(h, l.WH, nil)) // [B,4H]
	i := c.Sigmoid(c.Slice(gates, 1, 0, hh))
	f := c.Sigmoid(c.Slice(gates, 1, hh, 2*hh))
	g := c.Tanh(c.Slice(gates, 1, 2*hh, 3*hh))
	o := c.Sigmoid(c.Slice(gates, 1, 3*hh, 4*hh))
	cell = c.Add(c.Mul(f, cell), c.Mul(i, g))
	h = c.Mul(o, c.Tanh(cell))
	return h, cell
}
