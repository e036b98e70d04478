package ops

import (
	"testing"

	"mmbench/internal/precision"
	"mmbench/internal/tensor"
)

// Mixed-precision benchmark pair. Operands quantize as they are packed
// and the products run the packed micro-kernels (int32 accumulation for
// the i8 GEMM, f32 for f16 and for attention's levels), so on CPU the win
// is never the 2–4× a real reduced-precision datapath delivers — these
// benchmarks track the cost of the quantized paths next to the f32
// baselines already in BENCH_ops.json.

// BenchmarkMatMulI8 is BenchmarkEngineMatMul's 512×512×512 product
// under an int8 stage policy (symmetric per-tensor quantization, int32
// accumulation, scale-after-accumulate dequantization).
func BenchmarkMatMulI8(b *testing.B) {
	g := tensor.NewRNG(41)
	x := benchVar(g, 512, 512)
	y := benchVar(g, 512, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lowpCtx(nil, precision.I8).MatMul(x, y)
	}
}

// BenchmarkAttentionF16 is BenchmarkAttentionFused's long-sequence
// kernel under a float16 stage policy (RNE-rounded panels, f32
// streaming-softmax accumulation, f16 output store).
func BenchmarkAttentionF16(b *testing.B) {
	q, k, v, scale := attnBenchInputs(61)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lowpCtx(nil, precision.F16).Attention(q, k, v, attnBenchHeads, scale)
	}
}
