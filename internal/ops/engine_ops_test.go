package ops

import (
	"math"
	"testing"

	"mmbench/internal/autograd"
	"mmbench/internal/engine"
	"mmbench/internal/tensor"
)

// workerCounts are the engine sizes every determinism test sweeps; the
// contract is bitwise-identical results across all of them.
var workerCounts = []int{1, 4, 16}

// forwardBackward runs a network exercising every rewritten kernel
// (matmul, attention, conv, pooling, softmax, layernorm, elementwise,
// reductions, embedding, outer fusion) on the given
// engine and returns the flattened output plus every parameter gradient.
func forwardBackward(t *testing.T, e *engine.Engine) ([]float32, [][]float32) {
	t.Helper()
	g := tensor.NewRNG(99)
	x := randParam(g, 2, 3, 12, 12)
	cw := randParam(g, 4, 3, 3, 3)
	cb := randParam(g, 4)
	w1 := randParam(g, 4, 6)
	gamma := randParam(g, 6)
	beta := randParam(g, 6)
	qk := randParam(g, 2, 6, 6)
	table := randParam(g, 5, 6)
	params := []*Var{x, cw, cb, w1, gamma, beta, qk, table}

	tape := autograd.NewTape()
	c := &Ctx{Tape: tape, Eng: e}
	conv := c.ReLU(c.Conv2D(x, cw, cb, 1, 1))
	pooled := c.MaxPool2D(conv, 2)
	feat := c.GlobalAvgPool2D(pooled)                        // [2,4]
	h := c.GELU(c.Linear(feat, w1, nil))                     // [2,6]
	hn := c.LayerNorm(h, gamma, beta, 1e-5)                  // [2,6]
	emb := c.Embedding(table, [][]int{{0, 2, 4}, {1, 3, 0}}) // [2,3,6]
	att := c.Attention(emb, qk, qk, 2, 0.5)                  // [2,3,6]
	seq := c.MeanAxis1(c.Softmax(att))                       // [2,6]
	fusedIn := c.Mul(c.Add(hn, seq), hn)
	fused := c.OuterFusion(fusedIn, seq) // [2,49]
	loss := c.CrossEntropy(c.Reshape(fused, 2, 49), []int{3, 7})
	tape.Backward(loss)

	out := append([]float32(nil), fused.Value.Data()...)
	out = append(out, loss.Value.Data()...)
	grads := make([][]float32, len(params))
	for i, p := range params {
		if p.Grad == nil {
			t.Fatalf("param %d received no gradient", i)
		}
		grads[i] = append([]float32(nil), p.Grad.Data()...)
	}
	return out, grads
}

// TestKernelsBitwiseDeterministicAcrossWorkers is the engine's core
// contract: worker count must never change a single bit of any output
// or gradient.
func TestKernelsBitwiseDeterministicAcrossWorkers(t *testing.T) {
	refOut, refGrads := forwardBackward(t, engine.New(workerCounts[0]))
	for _, workers := range workerCounts[1:] {
		e := engine.New(workers)
		out, grads := forwardBackward(t, e)
		e.Close()
		for i, v := range out {
			if v != refOut[i] {
				t.Fatalf("workers=%d: output elem %d = %g, serial %g", workers, i, v, refOut[i])
			}
		}
		for p := range grads {
			for i, v := range grads[p] {
				if v != refGrads[p][i] {
					t.Fatalf("workers=%d: grad %d elem %d = %g, serial %g", workers, p, i, v, refGrads[p][i])
				}
			}
		}
	}
}

// TestDropoutDeterministicAcrossWorkers pins the dropout contract: RNG
// draws happen on the coordinating goroutine, so the mask depends only
// on the seed — 1, 4 and 16 workers produce identical outputs.
func TestDropoutDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) ([]float32, []float32) {
		e := engine.New(workers)
		defer e.Close()
		g := tensor.NewRNG(5)
		x := randParam(g, 16, 33)
		tape := autograd.NewTape()
		c := &Ctx{Tape: tape, Training: true, RNG: tensor.NewRNG(77), Eng: e}
		out := c.Dropout(x, 0.3)
		loss := c.MeanAll(c.Mul(out, out))
		tape.Backward(loss)
		return append([]float32(nil), out.Value.Data()...),
			append([]float32(nil), x.Grad.Data()...)
	}
	refOut, refGrad := run(workerCounts[0])
	var zeros int
	for _, v := range refOut {
		if v == 0 {
			zeros++
		}
	}
	if zeros == 0 || zeros == len(refOut) {
		t.Fatalf("dropout mask degenerate: %d/%d zeros", zeros, len(refOut))
	}
	for _, workers := range workerCounts[1:] {
		out, grad := run(workers)
		for i := range out {
			if out[i] != refOut[i] {
				t.Fatalf("workers=%d: dropout output elem %d differs (%g vs %g)", workers, i, out[i], refOut[i])
			}
		}
		for i := range grad {
			if grad[i] != refGrad[i] {
				t.Fatalf("workers=%d: dropout grad elem %d differs", workers, i)
			}
		}
	}
}

// TestGradcheckWithPooledBuffers verifies buffer-pool correctness under
// the poison debug mode: freed buffers are filled with NaN, so any
// operator that kept reading scratch after returning it to the pool
// would corrupt the analytic or numeric gradients below.
func TestGradcheckWithPooledBuffers(t *testing.T) {
	engine.SetDebug(true)
	defer engine.SetDebug(false)
	e := engine.New(4)
	defer e.Close()

	g := tensor.NewRNG(31)
	x := randParam(g, 2, 2, 5, 5)
	w := randParam(g, 3, 2, 3, 3)
	b := randParam(g, 3)
	params := []*Var{x, w, b}

	build := func(c *Ctx) *Var {
		// Conv2D (pooled im2col scratch) into CrossEntropy (pooled
		// softmax scratch in the inference re-evaluations).
		conv := c.Conv2D(x, w, b, 1, 1)
		flat := c.Flatten(conv)
		return c.CrossEntropy(flat, []int{1, 3})
	}

	// Warm the pool so reuse (not just fresh allocation) is exercised.
	for i := 0; i < 3; i++ {
		build(&Ctx{Eng: e})
	}
	if s := e.Stats(); s.PoolHits == 0 {
		t.Fatalf("pool never hit; test is not exercising reuse (stats %+v)", s)
	}

	tape := autograd.NewTape()
	loss := build(&Ctx{Tape: tape, Eng: e})
	tape.Backward(loss)

	const eps = 1e-2
	eval := func() float64 {
		l := build(&Ctx{Eng: e})
		return float64(l.Value.At(0))
	}
	for pi, p := range params {
		if p.Grad == nil {
			t.Fatalf("param %d received no gradient", pi)
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
			if math.IsNaN(analytic) || math.IsNaN(numeric) {
				t.Fatalf("param %d elem %d: NaN gradient (stale pooled buffer): analytic %g numeric %g", pi, i, analytic, numeric)
			}
			diff := math.Abs(numeric - analytic)
			scale := math.Max(1e-2, math.Max(math.Abs(numeric), math.Abs(analytic)))
			if diff/scale > 6e-2 {
				t.Errorf("param %d elem %d: analytic %g vs numeric %g", pi, i, analytic, numeric)
			}
		}
	}
}

// TestPooledEagerRunHasNoNaNs runs a larger forward with poisoning on
// and asserts the output is NaN-free — the end-to-end stale-buffer
// canary for the inference path.
func TestPooledEagerRunHasNoNaNs(t *testing.T) {
	engine.SetDebug(true)
	defer engine.SetDebug(false)
	e := engine.New(4)
	defer e.Close()
	g := tensor.NewRNG(8)
	x := randParam(g, 4, 3, 16, 16)
	w := randParam(g, 8, 3, 3, 3)
	var out *Var
	for i := 0; i < 4; i++ { // repeat so later runs consume poisoned buffers
		c := &Ctx{Eng: e}
		out = c.Softmax(c.Flatten(c.Conv2D(x, w, nil, 1, 1)))
	}
	for i, v := range out.Value.Data() {
		if math.IsNaN(float64(v)) {
			t.Fatalf("output elem %d is NaN: pooled scratch leaked into results", i)
		}
	}
}
