package ops

import (
	"fmt"
	"math"
	"testing"

	"mmbench/internal/autograd"
	"mmbench/internal/engine"
	"mmbench/internal/precision"
	"mmbench/internal/tensor"
)

// Merged cross-request execution (Ctx.Segments) must give every request
// the exact bits it would get standalone. These tests exercise each
// operator with cross-batch numerics — Linear and fused attention (i8
// scales), Conv2D (i8 activation scale) and
// BatchNorm2D (batch statistics) — comparing a merged multi-request
// forward slice-for-slice against the standalone runs. Where it matters, an engagement guard
// shows the *unsegmented* merged run differs, proving the test has
// teeth (and that segmentation is load-bearing, not vacuous).

func segVar(shape []int, scale float64, phase float64) *Var {
	v := autograd.NewVar(tensor.New(shape...))
	d := v.Value.Data()
	for i := range d {
		d[i] = float32(scale * math.Sin(0.7*float64(i)+phase))
	}
	return v
}

func segCtx(e *engine.Engine, p precision.Type, segs []int) *Ctx {
	c := &Ctx{Eng: e, Segments: segs}
	c.prec = p
	return c
}

func sliceEq(t *testing.T, name string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: bit divergence at [%d]: %g != %g", name, i, got[i], want[i])
		}
	}
}

// concatVars concatenates same-trailing-shape vars along the leading dim.
func concatVars(vs ...*Var) *Var {
	shape := append([]int(nil), vs[0].Value.Shape()...)
	shape[0] = 0
	for _, v := range vs {
		shape[0] += v.Value.Dim(0)
	}
	m := autograd.NewVar(tensor.New(shape...))
	n := 0
	for _, v := range vs {
		n += copy(m.Value.Data()[n:], v.Value.Data())
	}
	return m
}

// Linear: the packed GEMM core gives a row the same bits however many
// rows share the call, so at f32 and f16 a merged batch runs ONE
// unsegmented GEMM and every request's slice — forward output and input
// gradient — must still equal its standalone run bitwise. The request
// sizes straddle the MR=4 row-panel tail both ways (a request that ends
// mid-panel, one that starts mid-panel). At i8 the activation scale is
// per-tensor, so the forward calibrates per segment: segmented must match
// standalone, and the unsegmented run must NOT (the guard that shows the
// i8 segmentation is load-bearing). dX is an f32 product at every
// precision and never segments.
func TestLinearSegmentedBitwise(t *testing.T) {
	for _, workers := range []int{1, 4, 16} {
		e := engine.New(workers)
		for _, sizes := range [][]int{{3, 5}, {1, 2, 3, 5}} {
			testLinearSegmentedBitwise(t, e, sizes)
		}
		e.Close()
	}
}

func testLinearSegmentedBitwise(t *testing.T, e *engine.Engine, sizes []int) {
	const in, outDim = 64, 32
	w := segVar([]int{in, outDim}, 0.5, 2)
	bias := segVar([]int{outDim}, 0.1, 3)
	// run executes Linear forward + backward (all-ones upstream gradient)
	// and returns the output and dX.
	run := func(p precision.Type, segs []int, x *Var) (out, dx []float32) {
		x.NeedGrad = true
		x.Grad = nil
		c := segCtx(e, p, segs)
		c.Tape = autograd.NewTape()
		o := c.Linear(x, w, bias)
		o.Grad = tensor.New(o.Value.Shape()...)
		for i := range o.Grad.Data() {
			o.Grad.Data()[i] = 1
		}
		c.Tape.Replay()
		return o.Value.Data(), x.Grad.Data()
	}
	for _, p := range []precision.Type{precision.F32, precision.F16, precision.I8} {
		xs := make([]*Var, len(sizes))
		for i, rows := range sizes {
			// Different magnitudes → different standalone i8 scales.
			xs[i] = segVar([]int{rows, in}, float64(1+2*i), float64(i))
		}
		xm := concatVars(xs...)
		merged := map[string][]int{"segmented": sizes}
		if p != precision.I8 {
			merged["unsegmented"] = nil
		}
		for mode, segs := range merged {
			om, dxm := run(p, segs, xm)
			lo := 0
			for i, rows := range sizes {
				o, dx := run(p, nil, xs[i])
				name := fmt.Sprintf("linear/%v/%s/%v[%d]", p, mode, sizes, i)
				sliceEq(t, name+"/out", om[lo*outDim:(lo+rows)*outDim], o)
				sliceEq(t, name+"/dx", dxm[lo*in:(lo+rows)*in], dx)
				lo += rows
			}
		}
		if p == precision.I8 {
			ou, dxu := run(p, nil, xm)
			o, dx := run(p, nil, xs[0])
			if eqPrefix(ou, o) {
				t.Errorf("linear/i8/%v: unsegmented merged Linear matched standalone — guard is vacuous", sizes)
			}
			sliceEq(t, fmt.Sprintf("linear/i8/unsegmented/%v/dx", sizes), dxu[:len(dx)], dx)
		}
	}
}

func eqPrefix(got, want []float32) bool {
	for i := range want {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// Fused attention at i8: the q/k/v scales fold into per-batch-index
// score/output scales under segmentation.
func TestAttentionSegmentedI8(t *testing.T) {
	e := engine.New(2)
	const tq, d, heads = 12, 16, 2
	q1, k1, v1 := segVar([]int{2, tq, d}, 1, 0), segVar([]int{2, tq, d}, 1, 1), segVar([]int{2, tq, d}, 1, 2)
	q2, k2, v2 := segVar([]int{3, tq, d}, 5, 3), segVar([]int{3, tq, d}, 5, 4), segVar([]int{3, tq, d}, 5, 5)
	scale := float32(1 / math.Sqrt(d/heads))

	o1 := segCtx(e, precision.I8, nil).Attention(q1, k1, v1, heads, scale)
	o2 := segCtx(e, precision.I8, nil).Attention(q2, k2, v2, heads, scale)
	om := segCtx(e, precision.I8, []int{2, 3}).Attention(concatVars(q1, q2), concatVars(k1, k2), concatVars(v1, v2), heads, scale)
	sliceEq(t, "attention/out[0]", om.Value.Data()[:2*tq*d], o1.Value.Data())
	sliceEq(t, "attention/out[1]", om.Value.Data()[2*tq*d:], o2.Value.Data())

	ou := segCtx(e, precision.I8, nil).Attention(concatVars(q1, q2), concatVars(k1, k2), concatVars(v1, v2), heads, scale)
	if eqPrefix(ou.Value.Data(), o1.Value.Data()) {
		t.Error("unsegmented merged i8 attention matched standalone — guard is vacuous")
	}
}

// Conv2D at i8: the activation scale calibrates per request segment, at
// a single-row-panel GEMM (outC = MR) and a multi-panel one.
func TestConv2DSegmentedI8(t *testing.T) {
	e := engine.New(2)
	for _, tc := range []struct {
		name string
		outC int
	}{
		{"small", 4},
		{"large", 32},
	} {
		x1 := segVar([]int{2, 1, 10, 10}, 1, 0)
		x2 := segVar([]int{3, 1, 10, 10}, 6, 1)
		w := segVar([]int{tc.outC, 1, 3, 3}, 0.5, 2)
		bias := segVar([]int{tc.outC}, 0.1, 3)

		o1 := segCtx(e, precision.I8, nil).Conv2D(x1, w, bias, 1, 1)
		o2 := segCtx(e, precision.I8, nil).Conv2D(x2, w, bias, 1, 1)
		om := segCtx(e, precision.I8, []int{2, 3}).Conv2D(concatVars(x1, x2), w, bias, 1, 1)
		per := tc.outC * 10 * 10
		sliceEq(t, "conv/"+tc.name+"/out[0]", om.Value.Data()[:2*per], o1.Value.Data())
		sliceEq(t, "conv/"+tc.name+"/out[1]", om.Value.Data()[2*per:], o2.Value.Data())

		ou := segCtx(e, precision.I8, nil).Conv2D(concatVars(x1, x2), w, bias, 1, 1)
		if eqPrefix(ou.Value.Data(), o1.Value.Data()) {
			t.Errorf("conv/%s: unsegmented merged i8 conv matched standalone — guard is vacuous", tc.name)
		}
	}
}

// BatchNorm2D: batch statistics are the definitional cross-request
// state; each merged segment must normalize with its own mean/variance.
func TestBatchNorm2DSegmented(t *testing.T) {
	e := engine.New(2)
	x1 := segVar([]int{2, 3, 4, 4}, 1, 0)
	x2 := segVar([]int{4, 3, 4, 4}, 2, 1)
	gamma := segVar([]int{3}, 1, 2)
	beta := segVar([]int{3}, 0.5, 3)

	o1 := segCtx(e, precision.F32, nil).BatchNorm2D(x1, gamma, beta, 1e-5)
	o2 := segCtx(e, precision.F32, nil).BatchNorm2D(x2, gamma, beta, 1e-5)
	om := segCtx(e, precision.F32, []int{2, 4}).BatchNorm2D(concatVars(x1, x2), gamma, beta, 1e-5)
	per := 3 * 4 * 4
	sliceEq(t, "bn/out[0]", om.Value.Data()[:2*per], o1.Value.Data())
	sliceEq(t, "bn/out[1]", om.Value.Data()[2*per:], o2.Value.Data())

	ou := segCtx(e, precision.F32, nil).BatchNorm2D(concatVars(x1, x2), gamma, beta, 1e-5)
	if eqPrefix(ou.Value.Data(), o1.Value.Data()) {
		t.Error("unsegmented merged BatchNorm matched standalone — guard is vacuous")
	}
}

// The segments helper's divisibility rules: fewer than two segments,
// non-multiples (weight-shaped dims) and zero dims never segment; scaled
// batch-major dims (B·T rows, B·H stacks) segment with the right spans.
func TestSegmentsHelper(t *testing.T) {
	c := &Ctx{Segments: []int{2, 3}}
	if got := c.segments(5); len(got) != 2 || got[0] != (segment{0, 2}) || got[1] != (segment{2, 5}) {
		t.Fatalf("segments(5) = %v", got)
	}
	if got := c.segments(20); len(got) != 2 || got[0] != (segment{0, 8}) || got[1] != (segment{8, 20}) {
		t.Fatalf("segments(20) = %v (k=4 expected)", got)
	}
	if got := c.segments(7); got != nil {
		t.Fatalf("segments(7) = %v, want nil (not a multiple)", got)
	}
	if got := c.segments(0); got != nil {
		t.Fatalf("segments(0) = %v, want nil", got)
	}
	if got := (&Ctx{Segments: []int{5}}).segments(5); got != nil {
		t.Fatalf("single-segment segments(5) = %v, want nil", got)
	}
	if got := (&Ctx{}).segments(5); got != nil {
		t.Fatalf("no-segment segments(5) = %v, want nil", got)
	}
}
