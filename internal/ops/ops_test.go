package ops

import (
	"math"
	"testing"
	"testing/quick"

	"mmbench/internal/autograd"
	"mmbench/internal/engine"
	"mmbench/internal/kernels"
	"mmbench/internal/tensor"
)

// specRecorder collects kernel and host records for assertions.
type specRecorder struct {
	specs []kernels.Spec
	hosts int
}

func (r *specRecorder) Kernel(s kernels.Spec)            { r.specs = append(r.specs, s) }
func (r *specRecorder) Host(_ string, _, _ int64, _ int) { r.hosts++ }
func (r *specRecorder) classes() map[kernels.Class]int {
	m := make(map[kernels.Class]int)
	for _, s := range r.specs {
		m[s.Class]++
	}
	return m
}

func TestMatMulForward(t *testing.T) {
	a := autograd.NewVar(tensor.Of([]int{2, 3}, 1, 2, 3, 4, 5, 6))
	b := autograd.NewVar(tensor.Of([]int{3, 2}, 7, 8, 9, 10, 11, 12))
	out := Infer().MatMul(a, b)
	want := []float32{58, 64, 139, 154}
	for i, w := range want {
		if out.Value.Data()[i] != w {
			t.Fatalf("matmul[%d] = %v, want %v", i, out.Value.Data()[i], w)
		}
	}
}

func TestLinearForwardBias(t *testing.T) {
	x := autograd.NewVar(tensor.Of([]int{1, 2}, 1, 2))
	w := autograd.NewVar(tensor.Of([]int{2, 2}, 1, 0, 0, 1))
	b := autograd.NewVar(tensor.Of([]int{2}, 10, 20))
	out := Infer().Linear(x, w, b)
	if out.Value.At(0, 0) != 11 || out.Value.At(0, 1) != 22 {
		t.Fatalf("linear = %v", out.Value.Data())
	}
}

func TestConv2DForwardKnown(t *testing.T) {
	// 3x3 input, 2x2 kernel of ones, stride 1, no pad → sums of windows.
	x := autograd.NewVar(tensor.Of([]int{1, 1, 3, 3}, 1, 2, 3, 4, 5, 6, 7, 8, 9))
	w := autograd.NewVar(tensor.Of([]int{1, 1, 2, 2}, 1, 1, 1, 1))
	out := Infer().Conv2D(x, w, nil, 1, 0)
	want := []float32{12, 16, 24, 28}
	for i, wv := range want {
		if out.Value.Data()[i] != wv {
			t.Fatalf("conv[%d] = %v, want %v", i, out.Value.Data()[i], wv)
		}
	}
}

func TestConv2DPaddingShape(t *testing.T) {
	x := autograd.NewVar(tensor.New(2, 3, 8, 8))
	w := autograd.NewVar(tensor.New(16, 3, 3, 3))
	out := Infer().Conv2D(x, w, nil, 1, 1)
	if s := out.Value.Shape(); s[0] != 2 || s[1] != 16 || s[2] != 8 || s[3] != 8 {
		t.Fatalf("padded conv shape %v", s)
	}
	out2 := Infer().Conv2D(x, w, nil, 2, 1)
	if s := out2.Value.Shape(); s[2] != 4 || s[3] != 4 {
		t.Fatalf("strided conv shape %v", s)
	}
}

func TestMaxPoolForward(t *testing.T) {
	x := autograd.NewVar(tensor.Of([]int{1, 1, 2, 2}, 1, 5, 3, 2))
	out := Infer().MaxPool2D(x, 2)
	if out.Value.At(0, 0, 0, 0) != 5 {
		t.Fatalf("maxpool = %v", out.Value.Data())
	}
}

// TestMaxPoolUntapedMatchesTaped holds the untaped fast path (no argmax,
// row-wise conditional-move maxima) to the taped loop bitwise, over windows
// 2 and 3, odd heights and widths (trailing rows and columns dropped) and
// inputs salted with the values where two notions of "max" part ways: ±0
// ties in both orders, −Inf, and NaN (skipped by both).
func TestMaxPoolUntapedMatchesTaped(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	salt := []float32{0, negZero, negZero, 0, float32(math.Inf(-1)), float32(math.NaN()), float32(math.Inf(1))}
	for _, tc := range []struct{ n, ch, h, w, window int }{
		{2, 3, 8, 8, 2}, {1, 2, 9, 7, 2}, {2, 1, 7, 11, 3}, {1, 3, 9, 9, 3}, {1, 1, 2, 2, 2}, {1, 2, 5, 3, 3},
	} {
		x := tensor.New(tc.n, tc.ch, tc.h, tc.w)
		tensor.NewRNG(int64(tc.h*tc.w)).Uniform(x, -1, 1)
		for i, d := 0, x.Data(); i < len(d); i += 3 {
			d[i] = salt[(i/3)%len(salt)]
		}
		for _, workers := range []int{1, 4} {
			e := engine.New(workers)
			untaped := (&Ctx{Eng: e}).MaxPool2D(autograd.NewVar(x), tc.window)
			taped := (&Ctx{Eng: e, Tape: autograd.NewTape()}).MaxPool2D(autograd.Param(x), tc.window)
			e.Close()
			for i, want := range taped.Value.Data() {
				if got := untaped.Value.Data()[i]; math.Float32bits(got) != math.Float32bits(want) {
					t.Fatalf("%+v workers=%d: out[%d] = %g (bits %#x) untaped, %g (bits %#x) taped",
						tc, workers, i, got, math.Float32bits(got), want, math.Float32bits(want))
				}
			}
		}
	}
}

func TestGlobalAvgPool(t *testing.T) {
	x := autograd.NewVar(tensor.Of([]int{1, 2, 1, 2}, 1, 3, 10, 20))
	out := Infer().GlobalAvgPool2D(x)
	if out.Value.At(0, 0) != 2 || out.Value.At(0, 1) != 15 {
		t.Fatalf("gap = %v", out.Value.Data())
	}
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	g := tensor.NewRNG(3)
	x := tensor.New(4, 7)
	g.Uniform(x, -5, 5)
	out := Infer().Softmax(autograd.NewVar(x))
	for r := 0; r < 4; r++ {
		var sum float64
		for j := 0; j < 7; j++ {
			v := out.Value.At(r, j)
			if v < 0 || v > 1 {
				t.Fatalf("softmax value %v outside [0,1]", v)
			}
			sum += float64(v)
		}
		if math.Abs(sum-1) > 1e-5 {
			t.Fatalf("row %d sums to %v", r, sum)
		}
	}
}

func TestCrossEntropyUniform(t *testing.T) {
	// Zero logits over K classes → loss = ln K.
	x := autograd.NewVar(tensor.New(2, 4))
	loss := Infer().CrossEntropy(x, []int{1, 3})
	want := float32(math.Log(4))
	if math.Abs(float64(loss.Value.At(0)-want)) > 1e-5 {
		t.Fatalf("uniform CE = %v, want %v", loss.Value.At(0), want)
	}
}

func TestLayerNormStats(t *testing.T) {
	g := tensor.NewRNG(4)
	x := tensor.New(3, 16)
	g.Uniform(x, -3, 3)
	gamma := tensor.New(16)
	gamma.Fill(1)
	beta := tensor.New(16)
	out := Infer().LayerNorm(autograd.NewVar(x), autograd.NewVar(gamma), autograd.NewVar(beta), 1e-5)
	for r := 0; r < 3; r++ {
		var mean, varSum float64
		for j := 0; j < 16; j++ {
			mean += float64(out.Value.At(r, j))
		}
		mean /= 16
		for j := 0; j < 16; j++ {
			d := float64(out.Value.At(r, j)) - mean
			varSum += d * d
		}
		if math.Abs(mean) > 1e-4 {
			t.Fatalf("row %d mean %v", r, mean)
		}
		if math.Abs(varSum/16-1) > 1e-2 {
			t.Fatalf("row %d var %v", r, varSum/16)
		}
	}
}

func TestBatchNormForwardStats(t *testing.T) {
	g := tensor.NewRNG(5)
	x := tensor.New(4, 2, 3, 3)
	g.Uniform(x, -2, 5)
	gamma := tensor.New(2)
	gamma.Fill(1)
	beta := tensor.New(2)
	out := Infer().BatchNorm2D(autograd.NewVar(x), autograd.NewVar(gamma), autograd.NewVar(beta), 1e-5)
	// Each channel of the output should be ~zero-mean unit-variance.
	for ch := 0; ch < 2; ch++ {
		var mean float64
		n := 0
		for ni := 0; ni < 4; ni++ {
			for i := 0; i < 9; i++ {
				mean += float64(out.Value.Data()[(ni*2+ch)*9+i])
				n++
			}
		}
		mean /= float64(n)
		if math.Abs(mean) > 1e-4 {
			t.Fatalf("channel %d mean %v", ch, mean)
		}
	}
}

func TestBatchNormRejectsTape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("BatchNorm2D with tape did not panic")
		}
	}()
	c := &Ctx{Tape: autograd.NewTape()}
	x := autograd.Param(tensor.New(1, 2, 2, 2))
	gamma := autograd.Param(tensor.New(2))
	beta := autograd.Param(tensor.New(2))
	c.BatchNorm2D(x, gamma, beta, 1e-5)
}

func TestConcatForward(t *testing.T) {
	a := autograd.NewVar(tensor.Of([]int{2, 2}, 1, 2, 3, 4))
	b := autograd.NewVar(tensor.Of([]int{2, 1}, 9, 8))
	out := Infer().Concat(1, a, b)
	want := []float32{1, 2, 9, 3, 4, 8}
	for i, w := range want {
		if out.Value.Data()[i] != w {
			t.Fatalf("concat[%d] = %v want %v (%v)", i, out.Value.Data()[i], w, out.Value.Data())
		}
	}
}

func TestConcatAxis0AndChannels(t *testing.T) {
	a := autograd.NewVar(tensor.Of([]int{1, 2}, 1, 2))
	b := autograd.NewVar(tensor.Of([]int{2, 2}, 3, 4, 5, 6))
	out := Infer().Concat(0, a, b)
	if s := out.Value.Shape(); s[0] != 3 || s[1] != 2 {
		t.Fatalf("axis0 concat shape %v", s)
	}
	// Channel concat of NCHW (U-Net skip connections).
	x := autograd.NewVar(tensor.New(2, 3, 4, 4))
	y := autograd.NewVar(tensor.New(2, 5, 4, 4))
	cat := Infer().Concat(1, x, y)
	if cat.Value.Dim(1) != 8 {
		t.Fatalf("channel concat dim %d", cat.Value.Dim(1))
	}
}

func TestSliceForward(t *testing.T) {
	x := autograd.NewVar(tensor.Of([]int{2, 4}, 0, 1, 2, 3, 4, 5, 6, 7))
	out := Infer().Slice(x, 1, 1, 3)
	want := []float32{1, 2, 5, 6}
	for i, w := range want {
		if out.Value.Data()[i] != w {
			t.Fatalf("slice[%d] = %v, want %v", i, out.Value.Data()[i], w)
		}
	}
}

func TestDropoutInferenceIdentity(t *testing.T) {
	x := autograd.NewVar(tensor.Of([]int{2}, 1, 2))
	out := Infer().Dropout(x, 0.5)
	if out != x {
		t.Fatal("inference dropout must be identity")
	}
}

func TestDropoutTrainingMasks(t *testing.T) {
	c := &Ctx{Training: true, RNG: tensor.NewRNG(7)}
	x := tensor.New(10000)
	x.Fill(1)
	out := c.Dropout(autograd.NewVar(x), 0.3)
	zeros := 0
	for _, v := range out.Value.Data() {
		switch v {
		case 0:
			zeros++
		default:
			if math.Abs(float64(v)-1/0.7) > 1e-5 {
				t.Fatalf("surviving value %v, want %v", v, 1/0.7)
			}
		}
	}
	frac := float64(zeros) / 10000
	if frac < 0.25 || frac > 0.35 {
		t.Fatalf("dropout zeroed %v, want ≈0.3", frac)
	}
}

func TestAbstractPropagation(t *testing.T) {
	c := Infer()
	x := autograd.NewVar(tensor.NewAbstract(2, 3, 8, 8))
	w := autograd.NewVar(tensor.New(4, 3, 3, 3)) // concrete weights
	out := c.Conv2D(x, w, nil, 1, 1)
	if !out.Value.Abstract() {
		t.Fatal("conv of abstract input must be abstract")
	}
	flat := c.Flatten(c.MaxPool2D(out, 2))
	lin := c.Linear(flat, autograd.NewVar(tensor.New(4*4*4, 10)), nil)
	if !lin.Value.Abstract() {
		t.Fatal("abstractness must propagate through the network")
	}
	if s := lin.Value.Shape(); s[0] != 2 || s[1] != 10 {
		t.Fatalf("abstract shape %v", s)
	}
}

func TestAbstractLosses(t *testing.T) {
	c := Infer()
	x := autograd.NewVar(tensor.NewAbstract(2, 3))
	if !c.CrossEntropy(x, []int{0, 1}).Value.Abstract() {
		t.Fatal("abstract CE must stay abstract")
	}
	if !c.MSE(x, tensor.New(2, 3)).Value.Abstract() {
		t.Fatal("abstract MSE must stay abstract")
	}
}

func TestKernelEmission(t *testing.T) {
	rec := &specRecorder{}
	c := &Ctx{Rec: rec}
	x := autograd.NewVar(tensor.NewAbstract(4, 1, 28, 28))
	w1 := autograd.NewVar(tensor.New(6, 1, 5, 5))
	h := c.Conv2D(x, w1, autograd.NewVar(tensor.New(6)), 1, 2)
	h = c.ReLU(h)
	h = c.MaxPool2D(h, 2)
	h = c.Flatten(h)
	h = c.Linear(h, autograd.NewVar(tensor.New(6*14*14, 10)), autograd.NewVar(tensor.New(10)))
	cl := rec.classes()
	if cl[kernels.Conv] != 1 {
		t.Errorf("Conv kernels = %d, want 1", cl[kernels.Conv])
	}
	if cl[kernels.Relu] != 1 {
		t.Errorf("Relu kernels = %d, want 1", cl[kernels.Relu])
	}
	if cl[kernels.Pooling] != 1 {
		t.Errorf("Pooling kernels = %d, want 1", cl[kernels.Pooling])
	}
	if cl[kernels.Gemm] != 1 {
		t.Errorf("Gemm kernels = %d, want 1", cl[kernels.Gemm])
	}
	// conv bias + linear bias adds
	if cl[kernels.Elewise] != 2 {
		t.Errorf("Elewise kernels = %d, want 2", cl[kernels.Elewise])
	}
	for _, s := range rec.specs {
		if err := s.Validate(); err != nil {
			t.Errorf("emitted invalid spec: %v", err)
		}
	}
}

func TestEmbeddingForward(t *testing.T) {
	table := autograd.NewVar(tensor.Of([]int{3, 2}, 0, 1, 10, 11, 20, 21))
	out := Infer().Embedding(table, [][]int{{2, 0}})
	if out.Value.At(0, 0, 0) != 20 || out.Value.At(0, 1, 1) != 1 {
		t.Fatalf("embedding = %v", out.Value.Data())
	}
}

func TestOuterFusionForward(t *testing.T) {
	x := autograd.NewVar(tensor.Of([]int{1, 2}, 2, 3))
	y := autograd.NewVar(tensor.Of([]int{1, 1}, 5))
	out := Infer().OuterFusion(x, y)
	// [1;2;3] ⊗ [1;5] = [1 5; 2 10; 3 15]
	want := []float32{1, 5, 2, 10, 3, 15}
	for i, w := range want {
		if out.Value.Data()[i] != w {
			t.Fatalf("outer[%d] = %v, want %v", i, out.Value.Data()[i], w)
		}
	}
}

func TestMeanAxis1Forward(t *testing.T) {
	x := autograd.NewVar(tensor.Of([]int{1, 2, 2}, 1, 2, 3, 4))
	out := Infer().MeanAxis1(x)
	if out.Value.At(0, 0) != 2 || out.Value.At(0, 1) != 3 {
		t.Fatalf("mean_axis1 = %v", out.Value.Data())
	}
}

// Property: softmax is invariant to a constant shift of each row.
func TestSoftmaxShiftInvarianceProperty(t *testing.T) {
	f := func(seed int64, shiftRaw uint8) bool {
		g := tensor.NewRNG(seed)
		x := tensor.New(2, 5)
		g.Uniform(x, -2, 2)
		shift := float32(shiftRaw%10) - 5
		x2 := x.Clone()
		for i := range x2.Data() {
			x2.Data()[i] += shift
		}
		a := Infer().Softmax(autograd.NewVar(x))
		b := Infer().Softmax(autograd.NewVar(x2))
		for i := range a.Value.Data() {
			if math.Abs(float64(a.Value.Data()[i]-b.Value.Data()[i])) > 1e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: concat then complementary slices reproduces the inputs.
func TestConcatSliceRoundTripProperty(t *testing.T) {
	f := func(seed int64, aw, bw uint8) bool {
		da, db := int(aw%5)+1, int(bw%5)+1
		g := tensor.NewRNG(seed)
		a := tensor.New(2, da)
		b := tensor.New(2, db)
		g.Uniform(a, -1, 1)
		g.Uniform(b, -1, 1)
		c := Infer()
		cat := c.Concat(1, autograd.NewVar(a), autograd.NewVar(b))
		backA := c.Slice(cat, 1, 0, da)
		backB := c.Slice(cat, 1, da, da+db)
		for i := range a.Data() {
			if backA.Value.Data()[i] != a.Data()[i] {
				return false
			}
		}
		for i := range b.Data() {
			if backB.Value.Data()[i] != b.Data()[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: ReLU output is non-negative and idempotent.
func TestReLUIdempotentProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := tensor.NewRNG(seed)
		x := tensor.New(3, 4)
		g.Uniform(x, -5, 5)
		c := Infer()
		once := c.ReLU(autograd.NewVar(x))
		twice := c.ReLU(once)
		for i, v := range once.Value.Data() {
			if v < 0 || twice.Value.Data()[i] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTapeAccumulatesAcrossUses(t *testing.T) {
	// x used twice: grads must accumulate.
	x := autograd.Param(tensor.Of([]int{1}, 3))
	tape := autograd.NewTape()
	c := &Ctx{Tape: tape}
	y := c.Add(x, x) // y = 2x, dy/dx = 2
	loss := c.MeanAll(y)
	tape.Backward(loss)
	if got := x.Grad.At(0); got != 2 {
		t.Fatalf("grad = %v, want 2", got)
	}
}

func TestBackwardRequiresScalar(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Backward of non-scalar did not panic")
		}
	}()
	tape := autograd.NewTape()
	v := autograd.Param(tensor.New(2))
	tape.Backward(v)
}
