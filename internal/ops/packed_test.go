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

// These tests pin the packed GEMM micro-kernel at the operator level:
// MatMul forward rides the packed NN variant, its backward rides NT and
// TN. Each test guards engagement through the pack-panel counters — a
// change that silently routed these products around internal/gemm would
// fail loudly.

// packedForwardBackward runs MatMul with a scalar loss, returning outputs
// and parameter gradients.
func packedForwardBackward(t *testing.T, e *engine.Engine) ([]float32, [][]float32) {
	t.Helper()
	g := tensor.NewRNG(7)
	a := randParam(g, 48, 40)
	b := randParam(g, 40, 48)
	params := []*Var{a, b}

	tape := autograd.NewTape()
	c := &Ctx{Tape: tape, Eng: e}
	mm := c.MatMul(a, b) // packed NN; backward packed NT + TN
	tape.Backward(c.MeanAll(mm))

	out := append([]float32(nil), mm.Value.Data()...)
	grads := make([][]float32, len(params))
	for i, p := range params {
		if p.Grad == nil {
			t.Fatalf("param %d received no gradient", i)
		}
		grads[i] = append([]float32(nil), p.Grad.Data()...)
	}
	return out, grads
}

// TestPackedKernelsWorkerDeterminism requires bitwise-identical outputs
// and gradients from the packed NN/NT/TN kernels at 1, 4 and 16 workers.
func TestPackedKernelsWorkerDeterminism(t *testing.T) {
	packs := gemm.PackStats().PanelCheckouts
	e := engine.New(workerCounts[0])
	refOut, refGrads := packedForwardBackward(t, e)
	e.Close()
	if now := gemm.PackStats().PanelCheckouts; now == packs {
		t.Fatal("no pack panels drawn — MatMul did not reach the packed core")
	}
	for _, workers := range workerCounts[1:] {
		e := engine.New(workers)
		out, grads := packedForwardBackward(t, e)
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

// TestGradPackedMatMulSpot gradchecks the packed path: analytic
// gradients (computed by packed NT/TN backward kernels) against central
// finite differences at ~30 pseudo-randomly sampled parameter indices.
// A full element sweep at packed shapes would re-run thousands of
// GEMMs; spot sampling keeps the check cheap while still crossing
// panel boundaries (MR=4 rows, NR=16 columns) many times.
func TestGradPackedMatMulSpot(t *testing.T) {
	g := tensor.NewRNG(21)
	a := randParam(g, 32, 40)
	b := randParam(g, 40, 48)
	build := func(c *Ctx) *Var { return c.MeanAll(c.MatMul(a, b)) }

	tape := autograd.NewTape()
	loss := build(&Ctx{Tape: tape})
	tape.Backward(loss)

	const eps = 1e-2
	eval := func() float64 { return float64(build(Infer()).Value.At(0)) }
	lcg := uint32(12345)
	for pi, p := range []*Var{a, b} {
		data := p.Value.Data()
		for s := 0; s < 30; s++ {
			lcg = lcg*1664525 + 1013904223 // fixed LCG: deterministic spot set
			i := int(lcg % uint32(len(data)))
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

// TestPackedLowpLargeShapeErrorBounds re-validates the documented
// low-precision error bounds at a shape that rides the packed int8 and
// float16 kernels (quantization inside the panel packing, int32/f32
// accumulation in the micro-kernel), guarding engagement via the
// pack-panel counters.
func TestPackedLowpLargeShapeErrorBounds(t *testing.T) {
	bounds := map[precision.Type]float64{
		precision.F16: 5e-3,
		precision.I8:  5e-2,
	}
	e := engine.New(4)
	defer e.Close()
	g := tensor.NewRNG(9)
	a := randParam(g, 96, 80)
	b := randParam(g, 80, 64)
	ref := (&Ctx{Eng: e}).MatMul(a, b).Value.Data()
	for prec, bound := range bounds {
		packs := gemm.PackStats().PanelCheckouts
		got := lowpCtx(e, prec).MatMul(a, b).Value.Data()
		if now := gemm.PackStats().PanelCheckouts; now == packs {
			t.Fatalf("%v: no pack panels drawn — packed low-precision path did not engage", prec)
		}
		diff, scale := maxAbsDiff(got, ref)
		if diff == 0 {
			t.Errorf("%v: output bit-identical to f32 — reduced precision never applied", prec)
		}
		if rel := diff / scale; rel > bound {
			t.Errorf("%v: max error %g (relative %g) exceeds bound %g", prec, diff, rel, bound)
		}
	}
}

// TestPackedF32PoisonSafe runs a ragged-shape f32 MatMul (edge panels in
// both operands) repeatedly under NaN poisoning: pooled panel buffers
// must be fully written before the kernel reads them, and repeat runs
// must stay bitwise identical while drawing poisoned buffers from the
// pool.
func TestPackedF32PoisonSafe(t *testing.T) {
	engine.SetDebug(true)
	defer engine.SetDebug(false)
	e := engine.New(4)
	defer e.Close()
	g := tensor.NewRNG(13)
	a := randParam(g, 67, 53)
	b := randParam(g, 53, 35)
	c := &Ctx{Eng: e}
	ref := append([]float32(nil), c.MatMul(a, b).Value.Data()...)
	for pass := 0; pass < 2; pass++ {
		out := c.MatMul(a, b).Value.Data()
		for i, v := range out {
			if math.IsNaN(float64(v)) {
				t.Fatalf("pass %d: NaN at elem %d — stale pooled panel reached the output", pass, i)
			}
			if v != ref[i] {
				t.Fatalf("pass %d: elem %d differs from first run: %g vs %g", pass, i, v, ref[i])
			}
		}
	}
}

// TestCensusShapesMatchNaive is the differential check for the skinny
// products the nine workloads actually issue that are too small to have
// exercised the packed core before it became the only GEMM (head and
// gate Linears with rows ≤ 8, and the 8×64×10-class training head with
// its NT/TN gradients). Each runs as NN, NT and TN against the naive
// row kernel. The comparison is 1e-5 relative, not bitwise: the packed
// micro-kernel fuses each multiply-add (one rounding per step) where the
// oracle rounds the multiply and the add separately, so the last bits
// legitimately differ.
func TestCensusShapesMatchNaive(t *testing.T) {
	e := engine.New(4)
	defer e.Close()
	g := tensor.NewRNG(33)
	for _, s := range [][3]int{{2, 128, 2}, {2, 128, 8}, {2, 12, 192}, {2, 2, 192}, {1, 192, 64}, {8, 64, 10}} {
		m, k, n := s[0], s[1], s[2]
		a := randParam(g, m, k).Value.Data()
		b := randParam(g, k, n).Value.Data()
		gr := randParam(g, m, n).Value.Data() // upstream gradient of a·b
		check := func(kind string, got, want []float32) {
			t.Helper()
			if diff, scale := maxAbsDiff(got, want); diff/scale > 1e-5 {
				t.Errorf("%s %dx%dx%d: max error %g (relative %g) vs naive oracle", kind, m, k, n, diff, diff/scale)
			}
		}

		got, want := make([]float32, m*n), make([]float32, m*n)
		matmulNN(e, got, a, b, m, k, n, 1)
		naiveMatMulNN(want, a, b, m, k, n)
		check("NN", got, want)

		got, want = make([]float32, m*k), make([]float32, m*k) // dA = g·bᵀ
		matmulNT(e, got, gr, b, m, n, k, 1)
		naiveMatMulNN(want, gr, transposed(b, k, n), m, n, k)
		check("NT", got, want)

		got, want = make([]float32, k*n), make([]float32, k*n) // dB = aᵀ·g
		matmulTN(e, got, a, gr, m, k, n, 1)
		naiveMatMulNN(want, transposed(a, m, k), gr, k, m, n)
		check("TN", got, want)
	}
}

// transposed returns the [cols,rows] layout of a row-major [rows,cols]
// matrix.
func transposed(x []float32, rows, cols int) []float32 {
	out := make([]float32, len(x))
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			out[j*rows+i] = x[i*cols+j]
		}
	}
	return out
}
