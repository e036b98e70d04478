package ops

import (
	"math"
	"testing"

	"mmbench/internal/autograd"
	"mmbench/internal/tensor"
)

// activationInputs is the grid every activation kernel is checked on: a
// dense sweep of [-20, 20], both zeros, subnormals, the smallest and
// largest normals, and both sides of each function's saturation edge
// (tanh flushes e^(−2|x|) at |x| = 43.67, sigmoid clamps at 87, GELU's
// gate saturates near |x| = 10).
func activationInputs() []float32 {
	xs := []float32{
		0, float32(math.Copysign(0, -1)),
		1e-45, -1e-45, 1e-40, -1e-40, 1.1754944e-38, -1.1754944e-38,
		1e-20, -1e-20, 1e-8, -1e-8,
		9.9, -9.9, 10.1, -10.1,
		43.6, -43.6, 43.7, -43.7, 86.9, -86.9, 87, -87, 87.4, -87.4, 88.8, -88.8, 104, -104,
		1e10, -1e10, 1e20, -1e20, math.MaxFloat32, -math.MaxFloat32,
	}
	for x := float32(-20); x <= 20; x += 1.0 / 512 {
		xs = append(xs, x)
	}
	return xs
}

// runKernel applies a slice kernel to xs through every slice length class:
// whole, and in ragged pieces of 0, 1, 3, 4, 5, 7, 8 and 9 elements, which
// must agree bitwise (the kernels have no cross-element state).
func runKernel(t *testing.T, name string, kernel func(dst, src []float32), xs []float32) []float32 {
	t.Helper()
	whole := make([]float32, len(xs))
	kernel(whole, xs)
	pieces := make([]float32, len(xs))
	lens := []int{0, 1, 3, 4, 5, 7, 8, 9}
	for lo, k := 0, 0; lo < len(xs); k++ {
		hi := min(lo+lens[k%len(lens)], len(xs))
		kernel(pieces[lo:hi], xs[lo:hi])
		lo = hi
	}
	for i := range whole {
		if math.Float32bits(whole[i]) != math.Float32bits(pieces[i]) {
			t.Fatalf("%s(%g): %g in one call, %g in ragged pieces", name, xs[i], whole[i], pieces[i])
		}
	}
	return whole
}

func gelu64(x float64) float64 {
	return 0.5 * x * (1 + math.Tanh(math.Sqrt(2/math.Pi)*(x+0.044715*x*x*x)))
}

// TestActivationKernelsMatchFloat64 bounds the float32 kernels against the
// float64 functions they replaced: |err| ≤ 2.5e-7 for tanh and sigmoid,
// ≤ 1e-6·max(1,|x|) for GELU, over the whole grid.
func TestActivationKernelsMatchFloat64(t *testing.T) {
	xs := activationInputs()
	for _, tc := range []struct {
		name   string
		kernel func(dst, src []float32)
		ref    func(x float64) float64
		bound  func(x float64) float64
	}{
		{"tanh", tanhSlice, math.Tanh, func(float64) float64 { return 2.5e-7 }},
		{"sigmoid", sigmoidSlice, func(x float64) float64 { return 1 / (1 + math.Exp(-x)) }, func(float64) float64 { return 2.5e-7 }},
		{"gelu", geluSlice, gelu64, func(x float64) float64 { return 1e-6 * math.Max(1, math.Abs(x)) }},
	} {
		worst := 0.0
		for i, y := range runKernel(t, tc.name, tc.kernel, xs) {
			x := float64(xs[i])
			err := math.Abs(float64(y) - tc.ref(x))
			if !(err <= tc.bound(x)) {
				t.Errorf("%s(%g) = %g, float64 reference %g (|err| %g > %g)", tc.name, x, y, tc.ref(x), err, tc.bound(x))
			}
			if math.Abs(x) <= 20 {
				worst = math.Max(worst, err/tc.bound(x))
			}
		}
		t.Logf("%s: worst error on [-20, 20] is %.2f of its bound", tc.name, worst)
	}
}

// TestActivationKernelsSpecialValues pins what the bounds cannot: signs of
// zero, exact oddness, the infinities and NaN.
func TestActivationKernelsSpecialValues(t *testing.T) {
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	negZero := float32(math.Copysign(0, -1))
	apply := func(kernel func(dst, src []float32), x float32) float32 {
		var y [1]float32
		kernel(y[:], []float32{x})
		return y[0]
	}
	xs := activationInputs()
	pos := runKernel(t, "tanh", tanhSlice, xs)
	for i, x := range xs {
		if neg := apply(tanhSlice, -x); math.Float32bits(neg) != math.Float32bits(-pos[i]) {
			t.Fatalf("tanh is not odd at %g: tanh(x) = %g, tanh(-x) = %g", x, pos[i], neg)
		}
	}
	for _, tc := range []struct {
		name   string
		kernel func(dst, src []float32)
		x      float32
		want   float32
	}{
		{"tanh", tanhSlice, negZero, negZero},
		{"tanh", tanhSlice, inf, 1},
		{"tanh", tanhSlice, -inf, -1},
		{"tanh", tanhSlice, 50, 1},
		{"sigmoid", sigmoidSlice, 0, 0.5},
		{"sigmoid", sigmoidSlice, negZero, 0.5},
		{"sigmoid", sigmoidSlice, inf, 1},
		{"sigmoid", sigmoidSlice, 100, 1},
		{"gelu", geluSlice, 0, 0},
		{"gelu", geluSlice, negZero, negZero},
		{"gelu", geluSlice, inf, inf},
		{"gelu", geluSlice, -inf, -inf},
		{"gelu", geluSlice, 30, 30},
		{"relu", reluSlice, negZero, 0},
		{"relu", reluSlice, inf, inf},
		{"relu", reluSlice, -inf, 0},
		{"relu", reluSlice, nan, nan},
	} {
		got := apply(tc.kernel, tc.x)
		if math.Float32bits(got) != math.Float32bits(tc.want) {
			t.Errorf("%s(%g) = %g (bits %#x), want %g (bits %#x)", tc.name, tc.x, got, math.Float32bits(got), tc.want, math.Float32bits(tc.want))
		}
	}
	// The sigmoid floor: every x ≤ −87 gives the same tiny normal number.
	floor := apply(sigmoidSlice, -87)
	if floor <= 0 || floor > 2e-38 {
		t.Errorf("sigmoid(-87) = %g, want a normal number near 1.6e-38", floor)
	}
	for _, x := range []float32{-88.8, -104, -1e20, -inf} {
		if got := apply(sigmoidSlice, x); got != floor {
			t.Errorf("sigmoid(%g) = %g, want the floor %g", x, got, floor)
		}
	}
	for _, kernel := range []func(dst, src []float32){tanhSlice, sigmoidSlice, geluSlice} {
		if got := apply(kernel, nan); got == got {
			t.Errorf("kernel(NaN) = %g, want NaN", got)
		}
	}
}

// TestReLUKernelIsMax requires reluSlice to equal max(x, 0) bitwise on
// every non-NaN input: negatives and −0 become +0, the rest pass through.
func TestReLUKernelIsMax(t *testing.T) {
	xs := activationInputs()
	for i, y := range runKernel(t, "relu", reluSlice, xs) {
		if want := max(xs[i], 0); math.Float32bits(y) != math.Float32bits(want) {
			t.Fatalf("relu(%g) = %g (bits %#x), want %g", xs[i], y, math.Float32bits(y), want)
		}
	}
}

// TestGELUBackwardUsesForwardGate checks the derivative against a central
// difference of the float64 function (the gate it is built from is the
// forward's, so the two cannot drift apart).
func TestGELUBackwardUsesForwardGate(t *testing.T) {
	xs := tensor.New(81)
	for i := range xs.Data() {
		xs.Data()[i] = float32(i-40) / 4 // [-10, 10]
	}
	x := autograd.Param(xs)
	tape := autograd.NewTape()
	c := &Ctx{Tape: tape}
	y := c.GELU(x)
	y.EnsureGrad().Fill(1)
	tape.Replay()
	for i, g := range x.Grad.Data() {
		xv := float64(xs.Data()[i])
		const h = 1e-4
		want := (gelu64(xv+h) - gelu64(xv-h)) / (2 * h)
		if math.Abs(float64(g)-want) > 2e-6*math.Max(1, math.Abs(xv)) {
			t.Errorf("gelu'(%g) = %g, float64 central difference %g", xv, g, want)
		}
	}
}
