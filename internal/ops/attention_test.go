package ops

import (
	"math"
	"testing"

	"mmbench/internal/autograd"
	"mmbench/internal/engine"
	"mmbench/internal/tensor"
)

// unfusedAttention is the reference composition the fused kernel must
// match: split heads, NT score product with folded scale, softmax,
// probability·V product, merge heads.
func unfusedAttention(c *Ctx, q, k, v *Var, heads int, scale float32) *Var {
	qh := c.SplitHeads(q, heads)
	kh := c.SplitHeads(k, heads)
	vh := c.SplitHeads(v, heads)
	attn := c.Softmax(c.MatMulBatchedNT(qh, kh, scale))
	return c.MergeHeads(c.MatMulBatched(attn, vh), heads)
}

// attnCase builds a fresh q/k/v triple for the given shape.
func attnCase(seed int64, b, tq, tk, d int) (q, k, v *Var) {
	g := tensor.NewRNG(seed)
	return randParam(g, b, tq, d), randParam(g, b, tk, d), randParam(g, b, tk, d)
}

func TestExpf32MatchesMathExp(t *testing.T) {
	worst := 0.0
	for x := float32(0); x > -90; x -= 0.0137 {
		got := float64(expf32(x))
		want := math.Exp(float64(x))
		// Below the smallest normal float32 the kernel flushes to zero
		// (a probability < 1.2e-38 contributes nothing to a softmax).
		if want < 1.1754944e-38 {
			if got != 0 && got > 2*want {
				t.Fatalf("expf32(%g) = %g, want ~%g", x, got, want)
			}
			continue
		}
		rel := math.Abs(got-want) / want
		if rel > worst {
			worst = rel
		}
	}
	if worst > 1e-6 {
		t.Fatalf("expf32 worst relative error %g, want ≤ 1e-6", worst)
	}
	if expf32(-100) != 0 {
		t.Fatalf("expf32(-100) = %g, want 0", expf32(-100))
	}
	if expf32(0) != 1 {
		t.Fatalf("expf32(0) = %g, want 1", expf32(0))
	}
}

// TestAttentionMatchesUnfused pins the fused forward to the reference
// composition within 1e-5, across head counts, uneven tile edges
// (Tq/Tk not multiples of the tile sizes, and larger than one tile) and
// cross-attention (Tq ≠ Tk).
func TestAttentionMatchesUnfused(t *testing.T) {
	cases := []struct {
		name         string
		b, tq, tk, d int
		heads        int
	}{
		{"single_tile", 2, 5, 7, 8, 2},
		{"uneven_tiles", 1, attnQTile + 3, attnKTile + 9, 16, 4},
		{"multi_tile", 2, 2*attnQTile + 1, 2*attnKTile + 5, 12, 3},
		{"one_head", 1, 9, 70, 6, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q, k, v := attnCase(101, tc.b, tc.tq, tc.tk, tc.d)
			scale := float32(1 / math.Sqrt(float64(tc.d/tc.heads)))
			fused := Infer().Attention(q, k, v, tc.heads, scale)
			ref := unfusedAttention(Infer(), q, k, v, tc.heads, scale)
			fd, rd := fused.Value.Data(), ref.Value.Data()
			for i := range fd {
				if d := math.Abs(float64(fd[i] - rd[i])); d > 1e-5 {
					t.Fatalf("elem %d: fused %g vs unfused %g (|Δ| = %g)", i, fd[i], rd[i], d)
				}
			}
		})
	}
}

// TestAttentionGradMatchesUnfused compares every input gradient of the
// fused backward against the reference composition's.
func TestAttentionGradMatchesUnfused(t *testing.T) {
	run := func(fused bool) [][]float32 {
		q, k, v := attnCase(77, 2, attnQTile+5, attnKTile+11, 12)
		tape := autograd.NewTape()
		c := &Ctx{Tape: tape}
		var out *Var
		if fused {
			out = c.Attention(q, k, v, 3, 0.5)
		} else {
			out = unfusedAttention(c, q, k, v, 3, 0.5)
		}
		loss := c.MeanAll(c.Mul(out, out))
		tape.Backward(loss)
		var grads [][]float32
		for _, p := range []*Var{q, k, v} {
			grads = append(grads, append([]float32(nil), p.Grad.Data()...))
		}
		return grads
	}
	fg, rg := run(true), run(false)
	for p := range fg {
		for i := range fg[p] {
			if d := math.Abs(float64(fg[p][i] - rg[p][i])); d > 1e-5 {
				t.Fatalf("grad %d elem %d: fused %g vs unfused %g (|Δ| = %g)", p, i, fg[p][i], rg[p][i], d)
			}
		}
	}
}

// TestGradAttention gradchecks the fused operator directly against
// central finite differences.
func TestGradAttention(t *testing.T) {
	q, k, v := attnCase(55, 2, 5, 7, 8)
	gradCheck(t, "attention", []*Var{q, k, v}, func(c *Ctx) *Var {
		return c.MeanAll(c.Attention(q, k, v, 2, 0.4))
	})
}

// TestGradAttentionCrossTiles gradchecks across tile boundaries so the
// streaming-softmax rescaling and multi-tile backward recomputation are
// both exercised. Spot-checks a parameter subset to keep the finite
// differencing cheap.
func TestGradAttentionCrossTiles(t *testing.T) {
	q, k, v := attnCase(56, 1, attnQTile+2, attnKTile+3, 4)
	tape := autograd.NewTape()
	c := &Ctx{Tape: tape}
	loss := c.MeanAll(c.Attention(q, k, v, 2, 0.7))
	tape.Backward(loss)
	const eps = 1e-2
	eval := func() float64 {
		l := Infer().MeanAll(Infer().Attention(q, k, v, 2, 0.7))
		return float64(l.Value.At(0))
	}
	for pi, p := range []*Var{q, k, v} {
		if p.Grad == nil {
			t.Fatalf("param %d received no gradient", pi)
		}
		data := p.Value.Data()
		for i := 0; i < len(data); i += 7 {
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
				t.Errorf("param %d elem %d: analytic %g vs numeric %g", pi, i, analytic, numeric)
			}
		}
	}
}

// TestAttentionBitwiseDeterministicAcrossWorkers is the fused path's
// engine contract (same pattern as the full-network test in
// engine_ops_test.go): worker count must never change a single bit of
// the output or any input gradient.
func TestAttentionBitwiseDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) ([]float32, [][]float32) {
		e := engine.New(workers)
		defer e.Close()
		q, k, v := attnCase(31, 2, 2*attnQTile+3, attnKTile+17, 16)
		tape := autograd.NewTape()
		c := &Ctx{Tape: tape, Eng: e}
		out := c.Attention(q, k, v, 4, 0.5)
		loss := c.MeanAll(c.Mul(out, out))
		tape.Backward(loss)
		grads := make([][]float32, 0, 3)
		for _, p := range []*Var{q, k, v} {
			grads = append(grads, append([]float32(nil), p.Grad.Data()...))
		}
		return append([]float32(nil), out.Value.Data()...), grads
	}
	refOut, refGrads := run(workerCounts[0])
	for _, workers := range workerCounts[1:] {
		out, grads := run(workers)
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

// TestAttentionPooledScratchPoisonSafe repeats fused forward+backward
// with NaN poisoning on so stale pooled tiles would surface in results.
func TestAttentionPooledScratchPoisonSafe(t *testing.T) {
	engine.SetDebug(true)
	defer engine.SetDebug(false)
	e := engine.New(4)
	defer e.Close()
	before := AttentionStats()
	for rep := 0; rep < 3; rep++ {
		q, k, v := attnCase(int64(90+rep), 2, attnQTile+1, attnKTile+2, 8)
		tape := autograd.NewTape()
		c := &Ctx{Tape: tape, Eng: e}
		out := c.Attention(q, k, v, 2, 0.5)
		loss := c.MeanAll(out)
		tape.Backward(loss)
		for i, x := range out.Value.Data() {
			if math.IsNaN(float64(x)) {
				t.Fatalf("rep %d: output elem %d is NaN (stale pooled attention scratch)", rep, i)
			}
		}
		for i, x := range q.Grad.Data() {
			if math.IsNaN(float64(x)) {
				t.Fatalf("rep %d: q grad elem %d is NaN", rep, i)
			}
		}
	}
	after := AttentionStats()
	if after.FusedCalls <= before.FusedCalls || after.ScratchCheckouts <= before.ScratchCheckouts || after.ScratchBytes <= before.ScratchBytes {
		t.Fatalf("attention activity counters did not advance: before %+v after %+v", before, after)
	}
}

// TestAttentionAbstract checks the analytic path: abstract inputs skip
// the math but still emit exactly one fused kernel spec.
func TestAttentionAbstract(t *testing.T) {
	rec := &specRecorder{}
	c := &Ctx{Rec: rec}
	q := autograd.NewVar(tensor.NewAbstract(2, 6, 8))
	k := autograd.NewVar(tensor.NewAbstract(2, 9, 8))
	out := c.Attention(q, k, k, 2, 0.5)
	if !out.Value.Abstract() {
		t.Fatal("abstract attention must stay abstract")
	}
	if s := out.Value.Shape(); s[0] != 2 || s[1] != 6 || s[2] != 8 {
		t.Fatalf("abstract attention shape %v", s)
	}
	if len(rec.specs) != 1 {
		t.Fatalf("fused attention emitted %d kernels, want 1", len(rec.specs))
	}
	spec := rec.specs[0]
	if err := spec.Validate(); err != nil {
		t.Fatalf("attention spec invalid: %v", err)
	}
	if spec.Name != "attention_4x6x9x4" {
		t.Fatalf("attention spec name %q", spec.Name)
	}
}

// TestMatMulBatchedNT pins the transpose-free product against the
// explicit TransposeLast2 composition, bitwise (the folded alpha must
// reproduce scale-after-dot exactly).
func TestMatMulBatchedNT(t *testing.T) {
	g := tensor.NewRNG(12)
	a := randParam(g, 3, 4, 6)
	b := randParam(g, 3, 5, 6)
	nt := Infer().MatMulBatchedNT(a, b, 0.25)
	c := Infer()
	ref := c.Scale(c.MatMulBatched(a, c.TransposeLast2(b)), 0.25)
	if !tensor.SameShape(nt.Value, ref.Value) {
		t.Fatalf("NT shape %v vs ref %v", nt.Value.Shape(), ref.Value.Shape())
	}
	nd, rd := nt.Value.Data(), ref.Value.Data()
	for i := range nd {
		if nd[i] != rd[i] {
			t.Fatalf("elem %d: NT %g vs transpose composition %g", i, nd[i], rd[i])
		}
	}
}

func TestGradMatMulBatchedNT(t *testing.T) {
	g := tensor.NewRNG(13)
	a := randParam(g, 2, 3, 4)
	b := randParam(g, 2, 5, 4)
	gradCheck(t, "bmm_nt", []*Var{a, b}, func(c *Ctx) *Var {
		return c.MeanAll(c.MatMulBatchedNT(a, b, 0.5))
	})
}

// TestTransposeLast2DeterministicAcrossWorkers covers the newly
// parallelized transpose forward and backward.
func TestTransposeLast2DeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) ([]float32, []float32) {
		e := engine.New(workers)
		defer e.Close()
		g := tensor.NewRNG(7)
		x := randParam(g, 3, 37, 23)
		tape := autograd.NewTape()
		c := &Ctx{Tape: tape, Eng: e}
		tr := c.TransposeLast2(x)
		loss := c.MeanAll(c.Mul(tr, tr))
		tape.Backward(loss)
		return append([]float32(nil), tr.Value.Data()...),
			append([]float32(nil), x.Grad.Data()...)
	}
	refOut, refGrad := run(workerCounts[0])
	for _, workers := range workerCounts[1:] {
		out, grad := run(workers)
		for i := range out {
			if out[i] != refOut[i] {
				t.Fatalf("workers=%d: transpose elem %d differs", workers, i)
			}
		}
		for i := range grad {
			if grad[i] != refGrad[i] {
				t.Fatalf("workers=%d: transpose grad elem %d differs", workers, i)
			}
		}
	}
}
