package ops

import (
	"fmt"
	"math"

	"mmbench/internal/engine"
	"mmbench/internal/kernels"
	"mmbench/internal/tensor"
)

// Softmax applies softmax over the last dimension.
func (c *Ctx) Softmax(x *Var) *Var {
	s := x.Value.Shape()
	d := s[len(s)-1]
	rows := x.Value.Size() / d
	c.emit(kernels.SoftmaxSpec("softmax", rows, d))
	out := c.outUninit(s, x)
	if out.Value.Abstract() {
		return out
	}
	e := c.engine()
	xd, od := x.Value.Data(), out.Value.Data()
	softmaxRows(e, xd, od, rows, d)
	if c.taping(x) {
		c.tapeStep(out, func() {
			g := out.Grad.Data()
			xg := x.EnsureGrad().Data()
			e.ParallelFor(rows, rowGrain(d), func(r0, r1 int) {
				for r := r0; r < r1; r++ {
					var dot float64
					for j := 0; j < d; j++ {
						dot += float64(g[r*d+j]) * float64(od[r*d+j])
					}
					for j := 0; j < d; j++ {
						idx := r*d + j
						xg[idx] += od[idx] * (g[idx] - float32(dot))
					}
				}
			})
		})
	}
	return out
}

// softmaxRows computes a row-wise softmax; rows are independent, so the
// engine partitions over them with per-row math unchanged.
func softmaxRows(e *engine.Engine, x, out []float32, rows, d int) {
	e.ParallelFor(rows, rowGrain(d), func(r0, r1 int) {
		for r := r0; r < r1; r++ {
			row := x[r*d : (r+1)*d]
			max := row[0]
			for _, v := range row {
				if v > max {
					max = v
				}
			}
			var sum float64
			o := out[r*d : (r+1)*d]
			for j, v := range row {
				e := math.Exp(float64(v - max))
				o[j] = float32(e)
				sum += e
			}
			inv := float32(1 / sum)
			for j := range o {
				o[j] *= inv
			}
		}
	})
}

// CrossEntropy computes mean softmax cross-entropy between logits [B,K] and
// integer labels, returning a scalar loss.
func (c *Ctx) CrossEntropy(logits *Var, labels []int) *Var {
	assertRank(logits, 2, "CrossEntropy")
	b, k := logits.Value.Dim(0), logits.Value.Dim(1)
	if len(labels) != b {
		panic(fmt.Sprintf("ops: CrossEntropy %d labels for batch %d", len(labels), b))
	}
	// Each spec is emitted before the work it describes, so a profiler
	// charges the softmax to softmax_xent and only the reduction to
	// xent_mean.
	mean := kernels.ReduceSpec("xent_mean", b*k, 1)
	c.emit(kernels.SoftmaxSpec("softmax_xent", b, k))
	out := c.out([]int{1}, logits)
	if out.Value.Abstract() {
		c.emit(mean)
		return out
	}
	e := c.engine()
	taping := c.taping(logits)
	// The backward closure captures probs; only inference-mode scratch
	// can return to the pool.
	var probs []float32
	if taping {
		probs = make([]float32, b*k)
	} else {
		probs = e.GetUninit(b * k) // softmaxRows writes every entry
		defer e.Put(probs)
	}
	softmaxRows(e, logits.Value.Data(), probs, b, k)
	c.emit(mean)
	var loss float64
	for i, lab := range labels {
		if lab < 0 || lab >= k {
			panic(fmt.Sprintf("ops: CrossEntropy label %d outside [0,%d)", lab, k))
		}
		loss -= math.Log(math.Max(float64(probs[i*k+lab]), 1e-12))
	}
	out.Value.Set(float32(loss/float64(b)), 0)
	if taping {
		c.tapeStep(out, func() {
			g := out.Grad.At(0)
			lg := logits.EnsureGrad().Data()
			scale := g / float32(b)
			e.ParallelFor(b, rowGrain(k), func(i0, i1 int) {
				for i := i0; i < i1; i++ {
					for j := 0; j < k; j++ {
						delta := probs[i*k+j]
						if j == labels[i] {
							delta -= 1
						}
						lg[i*k+j] += scale * delta
					}
				}
			})
		})
	}
	return out
}

// BCEWithLogits computes mean binary cross-entropy between logits and 0/1
// targets of identical shape, returning a scalar loss.
func (c *Ctx) BCEWithLogits(logits *Var, targets *tensor.Tensor) *Var {
	if !tensor.SameShape(logits.Value, targets) && !logits.Value.Abstract() {
		panic(fmt.Sprintf("ops: BCEWithLogits shapes %v vs %v", logits.Value.Shape(), targets.Shape()))
	}
	n := logits.Value.Size()
	mean := kernels.ReduceSpec("bce_mean", n, 1) // emitted as CrossEntropy's
	c.emit(kernels.ElewiseSpec("bce_logits", n, 2, 6))
	out := c.out([]int{1}, logits)
	if out.Value.Abstract() {
		c.emit(mean)
		return out
	}
	e := c.engine()
	taping := c.taping(logits)
	xd, td := logits.Value.Data(), targets.Data()
	var sig []float32
	if taping {
		sig = make([]float32, n)
	} else {
		sig = e.GetUninit(n) // fully overwritten below
		defer e.Put(sig)
	}
	// Sigmoids are element-independent; the loss reduction stays on the
	// coordinating goroutine for a fixed summation order.
	e.ParallelFor(n, elemGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sig[i] = float32(1 / (1 + math.Exp(-float64(xd[i]))))
		}
	})
	c.emit(mean)
	var loss float64
	for i := range xd {
		s := float64(sig[i])
		t := float64(td[i])
		loss -= t*math.Log(math.Max(s, 1e-12)) + (1-t)*math.Log(math.Max(1-s, 1e-12))
	}
	out.Value.Set(float32(loss/float64(n)), 0)
	if taping {
		c.tapeStep(out, func() {
			g := out.Grad.At(0)
			lg := logits.EnsureGrad().Data()
			scale := g / float32(n)
			e.ParallelFor(n, elemGrain, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					lg[i] += scale * (sig[i] - td[i])
				}
			})
		})
	}
	return out
}

// MSE computes the mean squared error between pred and a constant target of
// identical shape, returning a scalar loss.
func (c *Ctx) MSE(pred *Var, target *tensor.Tensor) *Var {
	if !tensor.SameShape(pred.Value, target) && !pred.Value.Abstract() {
		panic(fmt.Sprintf("ops: MSE shapes %v vs %v", pred.Value.Shape(), target.Shape()))
	}
	n := pred.Value.Size()
	// The difference and its reduction are one pass, charged to mse_diff;
	// mse_mean follows it, as CrossEntropy's reduction spec does.
	mean := kernels.ReduceSpec("mse_mean", n, 1)
	c.emit(kernels.ElewiseSpec("mse_diff", n, 2, 3))
	out := c.out([]int{1}, pred)
	if out.Value.Abstract() {
		c.emit(mean)
		return out
	}
	pd, td := pred.Value.Data(), target.Data()
	var loss float64
	for i := range pd {
		d := float64(pd[i]) - float64(td[i])
		loss += d * d
	}
	c.emit(mean)
	out.Value.Set(float32(loss/float64(n)), 0)
	if c.taping(pred) {
		e := c.engine()
		c.tapeStep(out, func() {
			g := out.Grad.At(0)
			pg := pred.EnsureGrad().Data()
			scale := 2 * g / float32(n)
			e.ParallelFor(n, elemGrain, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					pg[i] += scale * (pd[i] - td[i])
				}
			})
		})
	}
	return out
}

// DiceLoss computes 1 − soft Dice coefficient between sigmoid(logits) and a
// binary mask of identical shape (used by the medical segmentation task).
func (c *Ctx) DiceLoss(logits *Var, mask *tensor.Tensor) *Var {
	if !tensor.SameShape(logits.Value, mask) && !logits.Value.Abstract() {
		panic(fmt.Sprintf("ops: DiceLoss shapes %v vs %v", logits.Value.Shape(), mask.Shape()))
	}
	n := logits.Value.Size()
	sums := kernels.ReduceSpec("dice_sums", 3*n, 1) // emitted as CrossEntropy's
	c.emit(kernels.ElewiseSpec("dice_sigmoid", n, 2, 5))
	out := c.out([]int{1}, logits)
	if out.Value.Abstract() {
		c.emit(sums)
		return out
	}
	const eps = 1e-6
	e := c.engine()
	taping := c.taping(logits)
	xd, md := logits.Value.Data(), mask.Data()
	var sig []float32
	if taping {
		sig = make([]float32, n)
	} else {
		sig = e.GetUninit(n) // fully overwritten below
		defer e.Put(sig)
	}
	e.ParallelFor(n, elemGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sig[i] = float32(1 / (1 + math.Exp(-float64(xd[i]))))
		}
	})
	c.emit(sums)
	var inter, sumP, sumT float64
	for i := range xd {
		s := float64(sig[i])
		inter += s * float64(md[i])
		sumP += s
		sumT += float64(md[i])
	}
	denom := sumP + sumT + eps
	dice := (2*inter + eps) / denom
	out.Value.Set(float32(1-dice), 0)
	if taping {
		c.tapeStep(out, func() {
			g := out.Grad.At(0)
			lg := logits.EnsureGrad().Data()
			e.ParallelFor(n, elemGrain, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					// d(1-dice)/dp_i, then chain through sigmoid.
					dDice := (2*float64(md[i])*denom - (2*inter + eps)) / (denom * denom)
					dSig := float64(sig[i]) * (1 - float64(sig[i]))
					lg[i] += g * float32(-dDice*dSig)
				}
			})
		})
	}
	return out
}
