// Package attnref is the attention oracle: multi-head scaled-dot-product
// attention written the obvious way — per head the whole score matrix, a
// row softmax, probabilities times values — in float64, with the
// hand-derived backward. The tests of internal/ops and internal/nn compare
// the fused kernel against it; nothing else imports it, and it imports
// neither (it works on autograd values), so both can.
package attnref

import (
	"math"

	"mmbench/internal/autograd"
	"mmbench/internal/tensor"
)

// Attention returns softmax(scale·Q·Kᵀ)·V per head for q [B,Tq,D] and
// k, v [B,Tk,D] in merged-head layout, every sum carried in float64 and
// rounded to float32 once, at the output. With a tape it records the
// backward step for whichever of q, k, v need gradients.
func Attention(tape *autograd.Tape, q, k, v *autograd.Var, heads int, scale float32) *autograd.Var {
	b, tq, d := q.Value.Dim(0), q.Value.Dim(1), q.Value.Dim(2)
	tk, dh := k.Value.Dim(1), q.Value.Dim(2)/heads
	qd, kd, vd := q.Value.Data(), k.Value.Data(), v.Value.Data()
	out := autograd.NewVar(tensor.New(b, tq, d))
	od := out.Value.Data()
	// probs[((bi·heads+h)·tq+i)·tk+j] is the softmax weight of key j for
	// query i; the backward reads it back.
	probs := make([]float64, b*heads*tq*tk)
	// at addresses row t of head h in batch bi of a [·,T,D] tensor.
	at := func(bi, t, rows, h int) int { return (bi*rows+t)*d + h*dh }
	for bi := 0; bi < b; bi++ {
		for h := 0; h < heads; h++ {
			for i := 0; i < tq; i++ {
				p := probs[((bi*heads+h)*tq+i)*tk:][:tk]
				maxS := math.Inf(-1)
				for j := range p {
					var s float64
					for x := 0; x < dh; x++ {
						s += float64(qd[at(bi, i, tq, h)+x]) * float64(kd[at(bi, j, tk, h)+x])
					}
					p[j] = float64(scale) * s
					maxS = math.Max(maxS, p[j])
				}
				var sum float64
				for j := range p {
					p[j] = math.Exp(p[j] - maxS)
					sum += p[j]
				}
				for x := 0; x < dh; x++ {
					var o float64
					for j := range p {
						o += p[j] / sum * float64(vd[at(bi, j, tk, h)+x])
					}
					od[at(bi, i, tq, h)+x] = float32(o)
				}
				for j := range p {
					p[j] /= sum
				}
			}
		}
	}
	if tape == nil || !(q.NeedGrad || k.NeedGrad || v.NeedGrad) {
		return out
	}
	out.NeedGrad = true
	tape.Append(func() {
		if out.Grad == nil {
			return
		}
		// dV = Pᵀ·dO, dP = dO·Vᵀ, dS = P∘(dP − rowsum(P∘dP)),
		// dQ = scale·dS·K, dK = scale·dSᵀ·Q — accumulated in float64 and
		// added to the float32 gradients once per element.
		g := out.Grad.Data()
		dq, dk, dv := make([]float64, len(qd)), make([]float64, len(kd)), make([]float64, len(vd))
		for bi := 0; bi < b; bi++ {
			for h := 0; h < heads; h++ {
				for i := 0; i < tq; i++ {
					p := probs[((bi*heads+h)*tq+i)*tk:][:tk]
					qi := at(bi, i, tq, h) // row i of q, and of dO
					dp := make([]float64, tk)
					var dot float64
					for j := range p {
						for x := 0; x < dh; x++ {
							dp[j] += float64(g[qi+x]) * float64(vd[at(bi, j, tk, h)+x])
						}
						dot += p[j] * dp[j]
					}
					for j := range p {
						kj := at(bi, j, tk, h)
						ds := float64(scale) * p[j] * (dp[j] - dot)
						for x := 0; x < dh; x++ {
							dv[kj+x] += p[j] * float64(g[qi+x])
							dq[qi+x] += ds * float64(kd[kj+x])
							dk[kj+x] += ds * float64(qd[qi+x])
						}
					}
				}
			}
		}
		for _, pair := range []struct {
			v *autograd.Var
			d []float64
		}{{q, dq}, {k, dk}, {v, dv}} {
			if !pair.v.NeedGrad {
				continue
			}
			grad := pair.v.EnsureGrad().Data()
			for i, x := range pair.d {
				grad[i] += float32(x)
			}
		}
	})
	return out
}
