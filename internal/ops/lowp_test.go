package ops

import (
	"math"
	"testing"

	"mmbench/internal/autograd"
	"mmbench/internal/engine"
	"mmbench/internal/gemm"
	"mmbench/internal/precision"
	"mmbench/internal/tensor"
)

// lowpCtx returns an inference context whose head stage runs at p, with
// the head stage entered — every GEMM-family operator call runs its
// low-precision kernel.
func lowpCtx(e *engine.Engine, p precision.Type) *Ctx {
	c := &Ctx{Eng: e, Precision: precision.Policy{Head: p}}
	c.EnterStage("head", "")
	return c
}

// maxAbsDiff returns the largest |a-b| and the largest |b| (for
// relative bounds).
func maxAbsDiff(a, b []float32) (diff, scale float64) {
	for i := range a {
		if d := math.Abs(float64(a[i]) - float64(b[i])); d > diff {
			diff = d
		}
		if s := math.Abs(float64(b[i])); s > scale {
			scale = s
		}
	}
	return diff, scale
}

// lowpKernels enumerates the operators with low-precision variants,
// each returning its flattened eager output.
var lowpKernels = []struct {
	name string
	run  func(c *Ctx, g *tensor.RNG) []float32
}{
	{"MatMul", func(c *Ctx, g *tensor.RNG) []float32 {
		a, b := randParam(g, 48, 40), randParam(g, 40, 32)
		return c.MatMul(a, b).Value.Data()
	}},
	{"Linear", func(c *Ctx, g *tensor.RNG) []float32 {
		x, w, b := randParam(g, 24, 40), randParam(g, 40, 16), randParam(g, 16)
		return c.Linear(x, w, b).Value.Data()
	}},
	{"Conv2D", func(c *Ctx, g *tensor.RNG) []float32 {
		x, w, b := randParam(g, 2, 3, 12, 12), randParam(g, 4, 3, 3, 3), randParam(g, 4)
		return c.Conv2D(x, w, b, 1, 1).Value.Data()
	}},
	{"Attention", func(c *Ctx, g *tensor.RNG) []float32 {
		q, k, v := randParam(g, 2, 9, 16), randParam(g, 2, 13, 16), randParam(g, 2, 13, 16)
		return c.Attention(q, k, v, 4, 0.5).Value.Data()
	}},
}

// Low-precision outputs must differ from the f32 reference (the grid is
// coarser, so a bit-identical result would mean the reduced precision
// never engaged) while staying inside the documented error bounds: the f16
// grid has 2⁻¹¹ relative steps, the i8 grid 1/127-of-maxabs steps, and
// the GEMM reductions accumulate those operand errors in f32.
func TestLowpKernelErrorBounds(t *testing.T) {
	bounds := map[precision.Type]float64{
		precision.F16: 5e-3, // documented bound 1e-2
		precision.I8:  5e-2, // documented bound 1e-1
	}
	e := engine.New(4)
	defer e.Close()
	for _, k := range lowpKernels {
		ref := k.run(&Ctx{Eng: e}, tensor.NewRNG(5))
		for prec, bound := range bounds {
			got := k.run(lowpCtx(e, prec), tensor.NewRNG(5))
			diff, scale := maxAbsDiff(got, ref)
			if diff == 0 {
				t.Errorf("%s/%v: output bit-identical to f32 — low-precision path did not engage", k.name, prec)
			}
			if rel := diff / scale; rel > bound {
				t.Errorf("%s/%v: max error %g (relative %g) exceeds bound %g", k.name, prec, diff, rel, bound)
			}
		}
	}
}

// Every low-precision kernel must stay bitwise deterministic across worker
// counts: quantization is element-wise, scale calibration is an
// order-independent max, and the underlying GEMMs keep their fixed
// accumulation order.
func TestLowpWorkerDeterminism(t *testing.T) {
	for _, prec := range []precision.Type{precision.F16, precision.I8} {
		for _, k := range lowpKernels {
			ref := k.run(lowpCtx(engine.New(workerCounts[0]), prec), tensor.NewRNG(17))
			for _, workers := range workerCounts[1:] {
				e := engine.New(workers)
				got := k.run(lowpCtx(e, prec), tensor.NewRNG(17))
				e.Close()
				for i := range got {
					if got[i] != ref[i] {
						t.Fatalf("%s/%v: elem %d differs at %d workers: %g vs %g",
							k.name, prec, i, workers, got[i], ref[i])
					}
				}
			}
		}
	}
}

// A context carrying a non-trivial policy whose *current stage* is f32
// must execute the reference kernels bit-for-bit — the policy only acts
// through the active stage assignment.
func TestLowpInactiveStageBitIdentical(t *testing.T) {
	e := engine.New(4)
	defer e.Close()
	for _, k := range lowpKernels {
		ref := k.run(&Ctx{Eng: e}, tensor.NewRNG(23))
		c := &Ctx{Eng: e, Precision: precision.Policy{Head: precision.I8}}
		c.EnterStage("fusion", "") // head policy not active here
		got := k.run(c, tensor.NewRNG(23))
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("%s: inactive-stage run differs at elem %d", k.name, i)
			}
		}
	}
}

// Pooled quantized-operand buffers must be fully overwritten before use
// and returned before the operator exits; under NaN poisoning any
// violation surfaces in the outputs.
func TestLowpPooledScratchPoisonSafe(t *testing.T) {
	engine.SetDebug(true)
	defer engine.SetDebug(false)
	e := engine.New(4)
	defer e.Close()
	for _, prec := range []precision.Type{precision.F16, precision.I8} {
		for _, k := range lowpKernels {
			// Two passes so the second draws poisoned buffers from the pool.
			k.run(lowpCtx(e, prec), tensor.NewRNG(31))
			out := k.run(lowpCtx(e, prec), tensor.NewRNG(31))
			for i, x := range out {
				if math.IsNaN(float64(x)) {
					t.Fatalf("%s/%v: NaN at elem %d — stale pooled scratch reached the output", k.name, prec, i)
				}
			}
		}
	}
}

// The kernel counters tick once per operator call — a merged batch that
// calibrates per request segment is still one kernel — and the quant-
// scratch counter moves only for the operator that quantizes pooled
// operand copies (fused attention); MatMul and Linear quantize inside the
// panel packing, counted by the pack stats.
func TestPrecisionStatsCount(t *testing.T) {
	before := PrecisionStats()
	packBefore := gemm.PackStats()
	e := engine.New(1)
	defer e.Close()
	g := tensor.NewRNG(3)
	lowpKernels[0].run(lowpCtx(e, precision.F16), g) // MatMul
	lowpKernels[0].run(lowpCtx(e, precision.I8), g)
	merged := lowpCtx(e, precision.I8)
	merged.Segments = []int{8, 16}
	lowpKernels[1].run(merged, g) // Linear, 24 rows as a two-request batch
	packed := PrecisionStats()
	packAfter := gemm.PackStats()
	if packed.F16Kernels != before.F16Kernels+1 {
		t.Errorf("f16 kernel count %d -> %d, want +1", before.F16Kernels, packed.F16Kernels)
	}
	if packed.I8Kernels != before.I8Kernels+2 {
		t.Errorf("i8 kernel count %d -> %d, want +2 (merged Linear counts once)", before.I8Kernels, packed.I8Kernels)
	}
	if packAfter.PanelBytes <= packBefore.PanelBytes {
		t.Errorf("pack-panel bytes did not grow: %d -> %d", packBefore.PanelBytes, packAfter.PanelBytes)
	}
	if packed.QuantScratchBytes != before.QuantScratchBytes {
		t.Errorf("MatMul/Linear drew quant scratch: %d -> %d", before.QuantScratchBytes, packed.QuantScratchBytes)
	}

	lowpKernels[3].run(lowpCtx(e, precision.I8), g) // Attention q [2,9,16], k and v [2,13,16]
	after := PrecisionStats()
	if after.I8Kernels != packed.I8Kernels+1 {
		t.Errorf("i8 kernel count %d -> %d, want +1", packed.I8Kernels, after.I8Kernels)
	}
	if want := packed.QuantScratchBytes + (2*9*16+2*2*13*16)*4; after.QuantScratchBytes != want {
		t.Errorf("quant scratch bytes %d -> %d, want %d", packed.QuantScratchBytes, after.QuantScratchBytes, want)
	}
}

// Abstract (analytic) execution under a policy must emit specs stamped
// with the reduced precision, and skip the numeric path entirely.
func TestLowpAbstractSpecBits(t *testing.T) {
	rec := &specRecorder{}
	c := &Ctx{Rec: rec, Precision: precision.Policy{Head: precision.I8}}
	c.EnterStage("head", "")
	a := autograd.NewVar(tensor.NewAbstract(48, 40))
	b := autograd.NewVar(tensor.NewAbstract(40, 32))
	c.MatMul(a, b)
	if len(rec.specs) != 1 {
		t.Fatalf("expected 1 spec, got %d", len(rec.specs))
	}
	if rec.specs[0].Bits != 8 {
		t.Fatalf("spec bits %d, want 8", rec.specs[0].Bits)
	}
	c.EnterStage("", "")
	c.MatMul(a, b)
	if rec.specs[1].Bits != 0 {
		t.Fatalf("outside-stage spec bits %d, want 0 (f32)", rec.specs[1].Bits)
	}
}
