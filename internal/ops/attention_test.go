package ops

import (
	"fmt"
	"math"
	"testing"

	"mmbench/internal/attnref"
	"mmbench/internal/autograd"
	"mmbench/internal/engine"
	"mmbench/internal/precision"
	"mmbench/internal/tensor"
)

// unfusedAttention is the reference the fused kernel must match: the
// naive float64 oracle (whole score matrix, row softmax, probability·V),
// taped on c's tape when it has one.
func unfusedAttention(c *Ctx, q, k, v *Var, heads int, scale float32) *Var {
	return attnref.Attention(c.Tape, q, k, v, heads, scale)
}

// attnCase builds a fresh q/k/v triple for the given shape.
func attnCase(seed int64, b, tq, tk, d int) (q, k, v *Var) {
	g := tensor.NewRNG(seed)
	return randParam(g, b, tq, d), randParam(g, b, tk, d), randParam(g, b, tk, d)
}

func TestExpf32MatchesMathExp(t *testing.T) {
	worst := 0.0
	// The whole documented domain: up to 88 (sigmoid and GELU pass
	// positive arguments) and down past the flush at expMin.
	for x := float32(88); x > -90; x -= 0.0137 {
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
	if expf32(float32(math.Inf(-1))) != 0 {
		t.Fatalf("expf32(-Inf) = %g, want 0", expf32(float32(math.Inf(-1))))
	}
	if expf32(0) != 1 {
		t.Fatalf("expf32(0) = %g, want 1", expf32(0))
	}
	if got := expf32(float32(math.NaN())); got == got {
		t.Fatalf("expf32(NaN) = %g, want NaN", got)
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
	if got := e.Stats().Attention; got.FusedCalls != 3 || got.ScratchCheckouts == 0 || got.ScratchBytes == 0 {
		t.Fatalf("attention activity counters %+v, want 3 fused calls and their scratch", got)
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

// awkwardAttentionShapes pairs every sequence length around the tile
// (32/64) and panel (4/16) edges, as Tq and as Tk with Tq ≠ Tk, with every
// head width and head counts 1–8, plus the two served self-attention
// shapes.
func awkwardAttentionShapes() (shapes []attnShape) {
	ts := []int{1, 31, 32, 33, 50, 63, 64, 65, 197}
	dhs := []int{8, 16, 24, 32, 64}
	for i, tq := range ts {
		for _, k := range []int{1, 4} {
			shapes = append(shapes, attnShape{tq, ts[(i+k)%len(ts)], dhs[(i+k)%len(dhs)], 1 + (3*i+k)%8})
		}
	}
	return append(shapes, attnShape{50, 50, 32, 8}, attnShape{197, 197, 64, 4})
}

type attnShape struct{ tq, tk, dh, heads int }

// attnBounds are the differential bounds against the float64 oracle:
// 2e-6 at f32 and half the documented low-precision bounds at f16 (1e-2)
// and i8 (1e-1), relative to the largest output.
var attnBounds = map[precision.Type]float64{precision.F32: 2e-6, precision.F16: 5e-3, precision.I8: 5e-2}

// checkAttention is the differential check of the packed forward at one
// shape and precision, on data of the given phase: within attnBounds of
// the naive float64 oracle; bitwise equal on every engine (engines[0] is
// the reference); and bitwise equal for a request alone and as the middle
// member of a three-request merged batch (i8 calibrating per segment).
// At f16 and i8 it also pins the quantized panels to copiesAttention, bit
// for bit, for the request alone and for a two-request merged batch. It
// returns the error relative to the largest output.
func checkAttention(t *testing.T, engines []*engine.Engine, s attnShape, prec precision.Type, phase float64) float64 {
	t.Helper()
	d := s.dh * s.heads
	scale := float32(1 / math.Sqrt(float64(s.dh)))
	member := func(b int, amp, phase float64) (q, k, v *Var) {
		return segVar([]int{b, s.tq, d}, amp, phase), segVar([]int{b, s.tk, d}, amp, phase+1), segVar([]int{b, s.tk, d}, amp, phase+2)
	}
	q, k, v := member(2, 1, phase)
	want := attnref.Attention(nil, q, k, v, s.heads, scale).Value.Data()
	name := fmt.Sprintf("tq%d_tk%d_dh%d_h%d/%v", s.tq, s.tk, s.dh, s.heads, prec)
	alone := segCtx(engines[0], prec, nil).Attention(q, k, v, s.heads, scale).Value.Data()
	diff, largest := maxAbsDiff(alone, want)
	if diff > attnBounds[prec]*math.Max(largest, 1) {
		t.Errorf("%s: max error %g vs the float64 oracle exceeds %g", name, diff, attnBounds[prec])
	}
	for _, e := range engines[1:] {
		sliceEq(t, fmt.Sprintf("%s/workers=%d", name, e.Workers()), segCtx(e, prec, nil).Attention(q, k, v, s.heads, scale).Value.Data(), alone)
	}
	q0, k0, v0 := member(1, 3, 0.5)
	q2, k2, v2 := member(3, 0.25, 0.25)
	merged := segCtx(engines[1], prec, []int{1, 2, 3}).Attention(concatVars(q0, q, q2), concatVars(k0, k, k2), concatVars(v0, v, v2), s.heads, scale).Value.Data()
	sliceEq(t, name+"/merged", merged[s.tq*d:3*s.tq*d], alone)
	if prec != precision.F32 {
		sliceEq(t, name+"/copies", alone, copiesAttention(engines[0], prec, nil, q, k, v, s.heads, scale))
		q01, k01, v01 := concatVars(q0, q), concatVars(k0, k), concatVars(v0, v)
		pair := segCtx(engines[len(engines)-1], prec, []int{1, 2}).Attention(q01, k01, v01, s.heads, scale).Value.Data()
		sliceEq(t, name+"/copies/merged", pair, copiesAttention(engines[0], prec, []int{1, 2}, q01, k01, v01, s.heads, scale))
	}
	return diff / math.Max(largest, 1)
}

// copiesAttention is low-precision attention as it ran before its panels
// were quantized as they are packed: per request segment (segs as in
// Ctx.Segments, nil for a lone request), q, k and v are quantized into
// copies — int8 levels at the scales calibrated over the segment, or the
// float16 grid — the f32 kernel runs over the copies with the q and k
// scales folded into the score scale, its output is multiplied by the v
// scale and, at f16, re-stored through the grid.
func copiesAttention(e *engine.Engine, prec precision.Type, segs []int, q, k, v *Var, heads int, scale float32) []float32 {
	if segs == nil {
		segs = []int{q.Value.Dim(0)}
	}
	var out []float32
	lo := 0
	for _, n := range segs {
		var low [3]*Var
		sc := [3]float32{1, 1, 1}
		for i, x := range []*Var{q, k, v} {
			per := x.Value.Size() / x.Value.Dim(0)
			src := x.Value.Data()[lo*per : (lo+n)*per]
			low[i] = autograd.NewVar(tensor.New(append([]int{n}, x.Value.Shape()[1:]...)...))
			if prec == precision.I8 {
				sc[i] = precision.I8Scale(precision.MaxAbs(src))
				precision.QuantizeI8(low[i].Value.Data(), src, sc[i])
			} else {
				precision.RoundF16Slice(low[i].Value.Data(), src)
			}
		}
		o := segCtx(e, precision.F32, nil).Attention(low[0], low[1], low[2], heads, scale*sc[0]*sc[1]).Value.Data()
		for i := range o {
			o[i] *= sc[2]
		}
		if prec == precision.F16 {
			precision.RoundF16Slice(o, o)
		}
		out = append(out, o...)
		lo += n
	}
	return out
}

// TestAttentionMatchesOracleAtAwkwardShapes runs checkAttention over
// awkwardAttentionShapes at every precision, on 1, 4 and 16 workers.
func TestAttentionMatchesOracleAtAwkwardShapes(t *testing.T) {
	engines := make([]*engine.Engine, len(workerCounts))
	for i, w := range workerCounts {
		engines[i] = engine.New(w)
		defer engines[i].Close()
	}
	worst := map[precision.Type]float64{}
	for si, s := range awkwardAttentionShapes() {
		for prec := range attnBounds {
			worst[prec] = math.Max(worst[prec], checkAttention(t, engines, s, prec, float64(si)))
		}
	}
	t.Logf("worst error vs the oracle: f32 %.2g, f16 %.2g, i8 %.2g", worst[precision.F32], worst[precision.F16], worst[precision.I8])
}

// FuzzAttention runs checkAttention on 1 and 4 workers over Tq, Tk ≤ 70
// (around the 32/64 tiles and 4/16 panels), head widths up to 64, 1–8
// heads and the three precisions; dimensions map 1 + x%70, 1 + x%64 and
// 1 + x%8. The seed corpus is awkwardAttentionShapes' shapes that fit.
func FuzzAttention(f *testing.F) {
	for _, s := range awkwardAttentionShapes() {
		if s.tq <= 70 && s.tk <= 70 {
			for p := uint8(0); p < 3; p++ {
				f.Add(uint8(s.tq-1), uint8(s.tk-1), uint8(s.dh-1), uint8(s.heads-1), p)
			}
		}
	}
	engines := []*engine.Engine{engine.New(1), engine.New(4)}
	f.Cleanup(func() {
		for _, e := range engines {
			e.Close()
		}
	})
	f.Fuzz(func(t *testing.T, tq, tk, dh, heads, prec uint8) {
		s := attnShape{1 + int(tq)%70, 1 + int(tk)%70, 1 + int(dh)%64, 1 + int(heads)%8}
		p := [3]precision.Type{precision.F32, precision.F16, precision.I8}[prec%3]
		checkAttention(t, engines, s, p, float64(tq)+float64(tk)/70)
	})
}

// TestAttentionDrawsNoGemmPanels pins the pack accounting: attention's
// tile panels are attention scratch (the engine's Attention block), never
// per-call GEMM operand panels (its Pack block, which the served models'
// kept-panel budget is read from) — at any precision, taped or not.
func TestAttentionDrawsNoGemmPanels(t *testing.T) {
	e := engine.New(2)
	defer e.Close()
	q, k, v := attnCase(7, 2, 50, 50, 64)
	for _, prec := range []precision.Type{precision.F32, precision.F16, precision.I8} {
		segCtx(e, prec, nil).Attention(q, k, v, 4, 0.25)
	}
	tape := autograd.NewTape()
	c := &Ctx{Tape: tape, Eng: e}
	tape.Backward(c.MeanAll(c.Attention(q, k, v, 4, 0.25)))
	s := e.Stats()
	if s.Pack != (engine.PackActivity{}) {
		t.Errorf("attention moved the GEMM pack counters: %+v", s.Pack)
	}
	if s.Attention.FusedCalls != 4 || s.Attention.ScratchBytes == 0 {
		t.Errorf("attention scratch counters %+v, want 4 calls and their bytes", s.Attention)
	}
	if out := s.PoolOutstanding; out != 0 {
		t.Errorf("%d pooled buffers outstanding after attention", out)
	}
}
