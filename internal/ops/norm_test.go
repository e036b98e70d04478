package ops

import (
	"fmt"
	"math"
	"testing"

	"mmbench/internal/autograd"
	"mmbench/internal/engine"
	"mmbench/internal/tensor"
)

// refLayerNorm is LayerNorm's forward and backward as one serial loop
// each, written the way the operator computed them before its row loop
// was tightened: the mean converted to float32 inside the element loop,
// every access indexed from the flat buffers. It returns the output, and
// with g (the output gradient) the input, gamma and beta gradients,
// accumulated into zeroed buffers.
func refLayerNorm(xd, gd, bd, g []float32, rows, d int, eps float32) (od, xg, gg, bg []float32) {
	od = make([]float32, rows*d)
	xhat := make([]float32, rows*d)
	invStd := make([]float32, rows)
	for r := 0; r < rows; r++ {
		row := xd[r*d : (r+1)*d]
		var mean float64
		for _, v := range row {
			mean += float64(v)
		}
		mean /= float64(d)
		var varSum float64
		for _, v := range row {
			dv := float64(v) - mean
			varSum += dv * dv
		}
		is := float32(1 / math.Sqrt(varSum/float64(d)+float64(eps)))
		for j, v := range row {
			xh := (v - float32(mean)) * is
			od[r*d+j] = xh*gd[j] + bd[j]
			xhat[r*d+j] = xh
		}
		invStd[r] = is
	}
	if g == nil {
		return od, nil, nil, nil
	}
	xg, gg, bg = make([]float32, rows*d), make([]float32, d), make([]float32, d)
	for r := 0; r < rows; r++ {
		var m1, m2 float64
		for j := 0; j < d; j++ {
			gj := float64(g[r*d+j]) * float64(gd[j])
			m1 += gj
			m2 += gj * float64(xhat[r*d+j])
		}
		m1 /= float64(d)
		m2 /= float64(d)
		for j := 0; j < d; j++ {
			idx := r*d + j
			gj := float64(g[idx]) * float64(gd[j])
			xg[idx] += float32((gj - m1 - float64(xhat[idx])*m2)) * invStd[r]
		}
	}
	for j := 0; j < d; j++ {
		for r := 0; r < rows; r++ {
			idx := r*d + j
			gg[j] += g[idx] * xhat[idx]
			bg[j] += g[idx]
		}
	}
	return od, xg, gg, bg
}

func wantSameBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	for i, v := range got {
		if math.Float32bits(v) != math.Float32bits(want[i]) {
			t.Fatalf("%s[%d] = %g (%#08x), reference %g (%#08x)", what, i, v, math.Float32bits(v), want[i], math.Float32bits(want[i]))
		}
	}
}

// TestLayerNormMatchesReference pins LayerNorm to refLayerNorm bit for
// bit at d ∈ {1, 7, 256, 512} (checkLayerNorm).
func TestLayerNormMatchesReference(t *testing.T) {
	for _, d := range []int{1, 7, 256, 512} {
		checkLayerNorm(t, 9, d)
	}
}

// TestLayerNormGradientsMatchSavedRows holds the taped LayerNorm, which
// keeps only each row's mean and inverse stddev and rebuilds the
// normalized row in its backward, to refLayerNorm's backward over a kept
// rows×d xhat buffer, for one row, d = 33 and a rank-3 input.
func TestLayerNormGradientsMatchSavedRows(t *testing.T) {
	for _, shape := range [][]int{{1, 64}, {7, 33}, {3, 5, 17}} {
		checkLayerNorm(t, shape...)
	}
}

// checkLayerNorm compares LayerNorm over an input of the given shape with
// refLayerNorm bit for bit, untaped (the output) and taped (the output
// and the x, gamma and beta gradients), at 1 and 3 workers. Rows are
// offset by up to ±300 from zero, so the float32 mean is not a small
// number the subtraction could hide.
func checkLayerNorm(t *testing.T, shape ...int) {
	t.Helper()
	const eps = 1e-5
	d := shape[len(shape)-1]
	g := tensor.NewRNG(int64(d))
	xv := tensor.New(shape...)
	g.Uniform(xv, -1, 1)
	xd := xv.Data()
	rows := len(xd) / d
	for r := 0; r < rows; r++ {
		off := float32(r%9-4) * 75
		for j := 0; j < d; j++ {
			xd[r*d+j] += off
		}
	}
	gamma, beta := randParam(g, d), randParam(g, d)
	wt := tensor.New(shape...) // the loss weights: dL/dout = wt / (rows·d)
	g.Uniform(wt, -1, 1)
	for _, workers := range []int{1, 3} {
		e := engine.New(workers)
		x := autograd.Param(xv)
		wantOut, _, _, _ := refLayerNorm(xd, gamma.Value.Data(), beta.Value.Data(), nil, rows, d, eps)
		got := (&Ctx{Eng: e}).LayerNorm(x, gamma, beta, eps).Value.Data()
		wantSameBits(t, fmt.Sprintf("%v untaped out", shape), got, wantOut)

		tape := autograd.NewTape()
		c := &Ctx{Tape: tape, Eng: e}
		out := c.LayerNorm(x, gamma, beta, eps)
		tape.Backward(c.MeanAll(c.Mul(out, autograd.NewVar(wt))))
		od, xg, gg, bg := refLayerNorm(xd, gamma.Value.Data(), beta.Value.Data(), out.Grad.Data(), rows, d, eps)
		wantSameBits(t, fmt.Sprintf("%v taped out", shape), out.Value.Data(), od)
		wantSameBits(t, fmt.Sprintf("%v x grad", shape), x.Grad.Data(), xg)
		wantSameBits(t, fmt.Sprintf("%v gamma grad", shape), gamma.Grad.Data(), gg)
		wantSameBits(t, fmt.Sprintf("%v beta grad", shape), beta.Grad.Data(), bg)
		gamma.ZeroGrad()
		beta.ZeroGrad()
		e.Close()
	}
}
