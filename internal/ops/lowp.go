package ops

import (
	"mmbench/internal/engine"
	"mmbench/internal/gemm"
	"mmbench/internal/precision"
)

// Low-precision execution of the GEMM-family hot kernels.
//
// When a stage's precision policy selects f16 or i8, operands are stored
// in the low-precision grid (float16 round-to-nearest-even, or symmetric
// per-tensor int8 levels with a calibrated maxabs/127 scale), products
// accumulate wide, and results are dequantized (i8) or re-stored through
// the grid (f16). Two arrangements exist, one per operator family:
//
//   - MatMul, Linear and Conv2D hand their f32 operands to gemm.F16 /
//     gemm.I8 (Conv2D: gemm.ConvF16 / gemm.ConvI8), which quantize inside
//     the panel packing (no level copies; int32 accumulation for i8) at
//     every shape.
//   - The fused attention kernel calibrates once per request segment of
//     each [B,T,D] projection (Ctx.i8Segments: the whole projection
//     unless a merged batch runs at i8), so it quantizes into pooled
//     operand copies (quantizeInto) and packs its f32 panels from the
//     levels. For int8 the levels are small integers in float32 slices:
//     products are ≤ 127·127 and float32 holds integers exactly up to
//     2²⁴, so the f32 score accumulation produces the sums an
//     int8×int8→int32 MAC array would for any realistic head width, and
//     one multiply by scaleQ·scaleK after accumulation dequantizes — the
//     scale-after-accumulate order real int8 GEMMs use. The copies are
//     drawn from the engine's buffer pool and returned before the
//     operator exits, like GEMM panels and attention scratch.
//
// Determinism: quantization is element-wise and the scale calibration
// is an order-independent max reduction, so every low-precision kernel
// keeps the engine's bitwise-determinism contract — results are
// identical at any worker count. Autograd backward always runs in
// float32 against the full-precision inputs (master weights), the
// standard mixed-precision training arrangement: the tape sees the
// quantized forward outputs but computes straight-through gradients.

// quantizeInto stores the prec-grid image of src into dst on the engine
// and returns the dequantization scale (1 for f16, whose grid values
// are real numbers already). dst and src may alias for in-place
// quantization. The i8 scale calibration is a serial max reduction —
// order-independent, so the result never depends on the worker count.
func quantizeInto(e *engine.Engine, prec precision.Type, dst, src []float32) float32 {
	switch prec {
	case precision.F16:
		e.ParallelFor(len(src), elemGrain, func(lo, hi int) {
			precision.RoundF16Slice(dst[lo:hi], src[lo:hi])
		})
		return 1
	case precision.I8:
		scale := precision.I8Scale(precision.MaxAbs(src))
		e.ParallelFor(len(src), elemGrain, func(lo, hi int) {
			precision.QuantizeI8(dst[lo:hi], src[lo:hi], scale)
		})
		return scale
	}
	panic("ops: quantizeInto called for f32")
}

// roundSliceF16 re-stores dst through the float16 grid in place on the
// engine — the output-storage step of an f16 kernel.
func roundSliceF16(e *engine.Engine, dst []float32) {
	e.ParallelFor(len(dst), elemGrain, func(lo, hi int) {
		precision.RoundF16Slice(dst[lo:hi], dst[lo:hi])
	})
}

// lowpMatmulNN computes dst[m,n] = a[m,k]·b[k,n] with operands stored
// at prec and wide accumulation: int8 quantizes straight into packed
// panels and accumulates in int32 (gemm.I8, calibrated with the
// order-independent maxabs reduction, dequantized after accumulation),
// f16 rounds into packed panels with f32 accumulation (gemm.F16) and
// re-stores the result through the grid. dst must start zeroed.
func lowpMatmulNN(e *engine.Engine, prec precision.Type, dst, a, b []float32, m, k, n int) {
	e.CountLowp(prec)
	if prec == precision.I8 {
		sa := precision.I8Scale(precision.MaxAbs(a))
		sb := precision.I8Scale(precision.MaxAbs(b))
		gemm.I8(e, dst, a, b, m, k, n, 1, sa, sb, false, false)
		return
	}
	gemm.F16(e, dst, a, b, m, k, n, 1, false, false)
	roundSliceF16(e, dst)
}
