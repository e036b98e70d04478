//go:build amd64 && !noasm && !race

// The race detector's instrumentation changes how the scalar loops
// compile, operand order included, so under it the surviving payload of
// two NaNs can differ from the vector bodies': these comparisons hold for
// the uninstrumented build only.

package ops

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mmbench/internal/autograd"
	"mmbench/internal/engine"
	"mmbench/internal/precision"
	"mmbench/internal/tensor"
)

// scalarBodies runs fn with this package's vector bodies off: the
// activation kernels and attention's row passes run their scalar loops.
// The caller has checked that they were on.
func scalarBodies(fn func()) {
	vecActivations = false
	defer func() { vecActivations = true }()
	fn()
}

// attnEdgeVars builds q, k, v for one variant of TestAttentionVectorMatchesScalar:
//
//	plain  uniform on [−1, 1)
//	q      q rows cycle through plain, NaNs (a payload per element), one
//	       +Inf, all ±0, ×60 (scores hundreds apart: most e^(s−m) flush
//	       below expMin) and one −Inf
//	kv     every fifth k row NaN (a payload per row, so a score row holds
//	       several NaNs per quad), every seventh with one +Inf, and every
//	       fourth v row NaN: accumulators and denominators both NaN
func attnEdgeVars(variant string, seed int64, tq, tk, d int) (q, k, v *Var) {
	g := tensor.NewRNG(seed)
	mk := func(t int) *Var {
		x := tensor.New(1, t, d)
		g.Uniform(x, -1, 1)
		return autograd.Param(x)
	}
	q, k, v = mk(tq), mk(tk), mk(tk)
	qd, kd, vd := q.Value.Data(), k.Value.Data(), v.Value.Data()
	nan := func(i int) float32 {
		return math.Float32frombits(0x7fc00000 | uint32(i*2654435761)&0x3fffff | uint32(i&1)<<31)
	}
	switch variant {
	case "q":
		for i := 0; i < tq; i++ {
			row := qd[i*d : (i+1)*d]
			switch i % 6 {
			case 1:
				for x := range row {
					row[x] = nan(i*d + x)
				}
			case 2:
				row[i%d] = float32(math.Inf(1))
			case 3:
				for x := range row {
					row[x] = float32(math.Copysign(0, float64(x%2)-0.5))
				}
			case 4:
				for x := range row {
					row[x] *= 60
				}
			case 5:
				row[0] = float32(math.Inf(-1))
			}
		}
	case "kv":
		for j := 0; j < tk; j++ {
			switch {
			case j%5 == 1:
				for x := range d {
					kd[j*d+x] = nan(j + 7*x)
				}
			case j%7 == 3:
				kd[j*d] = float32(math.Inf(1))
			}
			if j%4 == 2 {
				vd[j*d+j%d] = nan(3*j + 1)
			}
		}
	}
	return q, k, v
}

// TestAttentionVectorMatchesScalar compares Attention with its row
// passes on the vector bodies against the scalar loops, bit for bit,
// over every Tq and Tk in {1, 15, 16, 17, 31, 32, 33, 50, 64, 65, 197}
// (each side of the 16-lane body, the 32-row query tile and the 64-key
// tile), heads of width 8, 32 and 64, f32, f16 and i8, untaped and
// taped, on plain and edge inputs (attnEdgeVars). A taped call's
// gradients must match bit for bit too: the backward's scalar loops
// rebuild every probability from the row maxima and inverse denominators
// the forward saved, so they check what the taped forward saves (the
// passes that make them, row max and running total, are compared
// directly by TestAttentionRowPassesMatchScalar).
func TestAttentionVectorMatchesScalar(t *testing.T) {
	if !vecActivations {
		t.Skip("no AVX-512F vector bodies on this CPU: nothing to compare the scalar loops with")
	}
	e := engine.New(2)
	defer e.Close()
	ts := []int{1, 15, 16, 17, 31, 32, 33, 50, 64, 65, 197}
	type result struct{ out, grads []float32 }
	run := func(variant string, seed int64, tq, tk, dh int, prec precision.Type, taped bool) (r result) {
		const heads = 2
		q, k, v := attnEdgeVars(variant, seed, tq, tk, dh*heads)
		c := segCtx(e, prec, nil)
		if taped {
			c.Tape = autograd.NewTape()
		}
		out := c.Attention(q, k, v, heads, float32(1/math.Sqrt(float64(dh))))
		r.out = out.Value.Data()
		if taped {
			c.Tape.Backward(c.MeanAll(out))
			for _, p := range []*Var{q, k, v} {
				r.grads = append(r.grads, p.Grad.Data()...)
			}
		}
		return r
	}
	seed := int64(0)
	for _, variant := range []string{"plain", "q", "kv"} {
		for _, tq := range ts {
			for _, tk := range ts {
				for _, dh := range []int{8, 32, 64} {
					for _, prec := range []precision.Type{precision.F32, precision.F16, precision.I8} {
						for _, taped := range []bool{false, true} {
							seed++
							name := fmt.Sprintf("%s/tq%d_tk%d_dh%d/%v/taped=%v", variant, tq, tk, dh, prec, taped)
							got := run(variant, seed, tq, tk, dh, prec, taped)
							var want result
							scalarBodies(func() { want = run(variant, seed, tq, tk, dh, prec, taped) })
							sliceEq(t, name+"/out", got.out, want.out)
							sliceEq(t, name+"/grads", got.grads, want.grads)
						}
					}
				}
			}
		}
	}
}

// TestAttentionRowPassesMatchScalar drives the softmax's tile passes
// directly over tiles of one to three rows cut from vecEdgeInputs (both
// zeros and infinities, NaNs of both signs and several payloads,
// subnormals, the exponential's flush edge), every width 0–80,
// rows packed and 5 elements apart, with maxima from −Inf, ±0 and the
// rows' own, running totals 0, 1.5 and NaN, and inverse denominators and
// scales that are NaN, ±Inf, ±0 or ordinary. Vector and scalar must agree
// bit for bit on every element of the tile, between rows included (the row
// max under ==, for its ±0 tie), NaN payloads included.
func TestAttentionRowPassesMatchScalar(t *testing.T) {
	if !vecActivations {
		t.Skip("no AVX-512F vector bodies on this CPU: nothing to compare the scalar loops with")
	}
	edge := vecEdgeInputs()
	rng := rand.New(rand.NewSource(37))
	nan := math.Float32frombits(0xffd00bad)
	inf := float32(math.Inf(1))
	negZero := float32(math.Copysign(0, -1))
	maxima := []float32{float32(math.Inf(-1)), 0, negZero, 2}
	scales := []float32{1, 0.37, 0, negZero, inf, -inf, nan, 3e38}
	pick := func(n int) []float32 {
		xs := make([]float32, n)
		for i := range xs {
			xs[i] = scales[rng.Intn(len(scales))]
		}
		return xs
	}
	for w := 0; w <= 80; w++ {
		for trial := 0; trial < 24; trial++ {
			rows, ld := 1+trial%3, w+5*(trial/3%2)
			st := append([]float32(nil), edge[rng.Intn(len(edge)-rows*ld):][:rows*ld]...)
			if trial%4 == 0 {
				// Scores as the forward sees them: finite and close, so
				// few flush, but with the edge classes sprinkled in.
				for i := range st {
					if rng.Intn(4) != 0 {
						st[i] = float32(rng.NormFloat64() * 4)
					}
				}
			}
			name := fmt.Sprintf("w=%d rows=%d ld=%d", w, rows, ld)
			m, mScalar := make([]float32, rows), make([]float32, rows)
			for i := range m {
				m[i] = maxima[(trial+i)%len(maxima)]
			}
			copy(mScalar, m)
			attnTileMax(st, ld, w, m)
			scalarBodies(func() { attnTileMax(st, ld, w, mScalar) })
			for i := range m {
				if m[i] != mScalar[i] && !(m[i] != m[i] && mScalar[i] != mScalar[i]) {
					t.Fatalf("%s: attnTileMax row %d = %g, scalar loop %g", name, i, m[i], mScalar[i])
				}
			}
			for _, l0 := range []float64{0, 1.5, math.NaN()} {
				got, want := append([]float32(nil), st...), append([]float32(nil), st...)
				l, lScalar := make([]float64, rows), make([]float64, rows)
				for i := range l {
					l[i], lScalar[i] = l0, l0
				}
				attnTileExp(got, ld, w, mScalar, l)
				scalarBodies(func() { attnTileExp(want, ld, w, mScalar, lScalar) })
				requireSameBits(t, name+": attnTileExp", st, got, want)
				for i := range l {
					if math.Float64bits(l[i]) != math.Float64bits(lScalar[i]) {
						t.Fatalf("%s l=%g: attnTileExp's row %d sum %#016x, scalar loop %#016x", name, l0, i, math.Float64bits(l[i]), math.Float64bits(lScalar[i]))
					}
				}
			}

			// The store reads rows w apart and writes them ld+3 apart; the
			// elements between the written rows keep their poison.
			scale := scales[rng.Intn(len(scales))]
			inv, ldd := pick(rows), ld+3
			gotOut, wantOut := make([]float32, rows*ldd), make([]float32, rows*ldd)
			for i := range gotOut {
				gotOut[i], wantOut[i] = nan, nan
			}
			attnTileStore(gotOut, ldd, st, w, inv, scale)
			scalarBodies(func() { attnTileStore(wantOut, ldd, st, w, inv, scale) })
			sliceEq(t, fmt.Sprintf("%s inv=%v scale=%g: attnTileStore", name, inv, scale), gotOut, wantOut)
		}
	}
}
