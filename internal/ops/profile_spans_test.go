package ops

import (
	"fmt"
	"testing"
	"time"

	"mmbench/internal/obs"
	"mmbench/internal/tensor"
)

// profiledWalls runs op once untimed (pools and scratch warm up), then
// once under a profiler, and returns the summed span time of each kernel
// name together with the profiled call's wall time.
func profiledWalls(op func(c *Ctx)) (map[string]time.Duration, time.Duration) {
	op(Infer())
	prof := obs.NewProfiler()
	c := &Ctx{Prof: prof.Root()}
	t0 := time.Now()
	op(c)
	wall := time.Since(t0)
	walls := map[string]time.Duration{}
	for _, s := range prof.Finish().Spans {
		walls[s.Name] += s.End - s.Start
	}
	return walls, wall
}

// TestLinearProductLandsOnItsSpan requires a profiler to charge Linear's
// product to the linear span and only the fused bias add's bookkeeping to
// the bias_add span, which is emitted after the product stores.
func TestLinearProductLandsOnItsSpan(t *testing.T) {
	const rows, in, out = 256, 1024, 1024
	g := tensor.NewRNG(71)
	x, w, b := benchVar(g, rows, in), benchVar(g, in, out), benchVar(g, out)
	walls, wall := profiledWalls(func(c *Ctx) { c.Linear(x, w, b) })
	lead := walls[fmt.Sprintf("linear_%dx%dx%d", rows, in, out)]
	t.Logf("wall %v: linear %v, bias_add %v", wall, lead, walls["bias_add"])
	if lead < wall/2 {
		t.Errorf("linear span %v holds under half of Linear's wall %v", lead, wall)
	}
	if walls["bias_add"] > wall/10 {
		t.Errorf("bias_add span %v holds over a tenth of Linear's wall %v", walls["bias_add"], wall)
	}
}

// TestLSTMProductsLandOnAGemmSpan requires a profiler to charge each LSTM
// step's products to the step's h·W_h linear span (the last of the specs
// emitted before them), not to the elementwise specs of its gate pass.
func TestLSTMProductsLandOnAGemmSpan(t *testing.T) {
	const b, steps, d, h = 32, 4, 128, 256
	g := tensor.NewRNG(72)
	x := benchVar(g, b, steps, d)
	wx, wh, bias := benchVar(g, d, 4*h), benchVar(g, h, 4*h), benchVar(g, 4*h)
	walls, wall := profiledWalls(func(c *Ctx) { c.LSTMSequence(x, wx, wh, bias) })
	recur := walls[fmt.Sprintf("linear_%dx%dx%d", b, h, 4*h)]
	t.Logf("wall %v: h·W_h linear %v, mul %v, bias_add %v", wall, recur, walls["mul"], walls["bias_add"])
	if recur < wall/2 {
		t.Errorf("h·W_h linear spans %v hold under half of LSTMSequence's wall %v", recur, wall)
	}
	if walls["bias_add"] > wall/10 {
		t.Errorf("bias_add spans %v hold over a tenth of LSTMSequence's wall %v", walls["bias_add"], wall)
	}
}
