// Package train provides the optimizers, task metrics and training loop
// used to reproduce MMBench's algorithm-level experiments (Figures 4, 5).
package train

import (
	"fmt"
	"math"

	"mmbench/internal/autograd"
	"mmbench/internal/data"
	"mmbench/internal/engine"
	"mmbench/internal/mmnet"
	"mmbench/internal/obs"
	"mmbench/internal/ops"
	"mmbench/internal/precision"
	"mmbench/internal/tensor"
)

// Optimizer updates parameters from their accumulated gradients.
type Optimizer interface {
	Step(params []*ops.Var)
}

// SGD is stochastic gradient descent with momentum.
type SGD struct {
	LR       float32
	Momentum float32
	vel      map[*ops.Var]*tensor.Tensor
}

// NewSGD builds an SGD optimizer.
func NewSGD(lr, momentum float32) *SGD {
	return &SGD{LR: lr, Momentum: momentum, vel: make(map[*ops.Var]*tensor.Tensor)}
}

// Step applies one SGD update and clears gradients.
func (o *SGD) Step(params []*ops.Var) {
	for _, p := range params {
		if p.Grad == nil {
			continue
		}
		v := o.vel[p]
		if v == nil {
			v = tensor.New(p.Value.Shape()...)
			o.vel[p] = v
		}
		vd, gd, pd := v.Data(), p.Grad.Data(), p.Value.Data()
		for i := range pd {
			vd[i] = o.Momentum*vd[i] + gd[i]
			pd[i] -= o.LR * vd[i]
		}
		p.ZeroGrad()
	}
}

// Adam is the Adam optimizer.
type Adam struct {
	LR, Beta1, Beta2, Eps float32
	t                     int
	m, v                  map[*ops.Var]*tensor.Tensor
}

// NewAdam builds an Adam optimizer with standard betas.
func NewAdam(lr float32) *Adam {
	return &Adam{
		LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		m: make(map[*ops.Var]*tensor.Tensor),
		v: make(map[*ops.Var]*tensor.Tensor),
	}
}

// Step applies one Adam update and clears gradients.
func (o *Adam) Step(params []*ops.Var) {
	o.t++
	bc1 := 1 - float32(math.Pow(float64(o.Beta1), float64(o.t)))
	bc2 := 1 - float32(math.Pow(float64(o.Beta2), float64(o.t)))
	for _, p := range params {
		if p.Grad == nil {
			continue
		}
		m, v := o.m[p], o.v[p]
		if m == nil {
			m = tensor.New(p.Value.Shape()...)
			v = tensor.New(p.Value.Shape()...)
			o.m[p], o.v[p] = m, v
		}
		md, vd, gd, pd := m.Data(), v.Data(), p.Grad.Data(), p.Value.Data()
		for i := range pd {
			g := gd[i]
			md[i] = o.Beta1*md[i] + (1-o.Beta1)*g
			vd[i] = o.Beta2*vd[i] + (1-o.Beta2)*g*g
			mHat := md[i] / bc1
			vHat := vd[i] / bc2
			pd[i] -= o.LR * mHat / (float32(math.Sqrt(float64(vHat))) + o.Eps)
		}
		p.ZeroGrad()
	}
}

// Config controls a training run.
type Config struct {
	Epochs        int
	StepsPerEpoch int
	BatchSize     int
	LR            float32
	Seed          int64
	// Engine runs the forward and backward kernels; nil uses the
	// process default. Training results are identical at any worker
	// count (dropout masks are drawn on the coordinating goroutine).
	Engine *engine.Engine
	// Precision is the per-stage storage-precision policy. Forward
	// GEMM-family kernels run at the stage's assigned precision;
	// gradients and optimizer state stay float32 against the
	// full-precision master weights (straight-through estimation), the
	// standard mixed-precision training arrangement. The zero policy
	// trains bit-identically to the reference float32 path.
	Precision precision.Policy
	// Profiler, when non-nil, records wall-clock spans across every
	// training step: forward kernels plus explicit backward/optimizer
	// regions. Pure observer — training results are unchanged.
	Profiler *obs.Profiler
}

// DefaultConfig returns a quick-converging configuration for the planted
// synthetic tasks. The learning rate is deliberately conservative: the
// recurrent and gated fusion variants (lf, glu, sum) diverge above ~3e-3.
func DefaultConfig() Config {
	return Config{Epochs: 5, StepsPerEpoch: 24, BatchSize: 24, LR: 1e-3, Seed: 1}
}

// Result summarizes a trained network's evaluation.
type Result struct {
	// Metric is task-dependent: accuracy (Classify), micro-F1
	// (MultiLabel), MSE (Regress) or Dice coefficient (Segment).
	Metric    float64
	FinalLoss float64
}

// MetricName returns the task's headline metric label.
func MetricName(task data.Task) string {
	switch task {
	case data.Classify:
		return "accuracy"
	case data.MultiLabel:
		return "micro-F1"
	case data.Regress:
		return "MSE"
	case data.Segment:
		return "DSC"
	}
	return "metric"
}

// Fit trains the network on freshly generated synthetic batches.
func Fit(n *mmnet.Network, cfg Config) Result {
	opt := NewAdam(cfg.LR)
	rng := tensor.NewRNG(cfg.Seed)
	params := n.Params()
	var lastLoss float64
	for e := 0; e < cfg.Epochs; e++ {
		for s := 0; s < cfg.StepsPerEpoch; s++ {
			b := n.Gen.Batch(rng.Split(int64(e*1000+s)), cfg.BatchSize)
			tape := autograd.NewTape()
			c := &ops.Ctx{
				Tape: tape, Training: true, RNG: rng, Eng: cfg.Engine,
				Precision: cfg.Precision,
				Prof:      cfg.Profiler.Root(),
			}
			out := n.Forward(c, b)
			loss := n.Loss(c, out, b)
			endBwd := c.Prof.Region("backward")
			tape.Backward(loss)
			endBwd()
			endOpt := c.Prof.Region("optimizer")
			opt.Step(params)
			endOpt()
			lastLoss = float64(loss.Value.At(0))
		}
	}
	eval := EvaluateWith(n, cfg, tensor.NewRNG(cfg.Seed+7777), 8, cfg.BatchSize)
	eval.FinalLoss = lastLoss
	return eval
}

// Evaluate measures the task metric over nBatches fresh batches on the
// default compute engine at float32.
func Evaluate(n *mmnet.Network, rng *tensor.RNG, nBatches, batchSize int) Result {
	return EvaluateWith(n, Config{}, rng, nBatches, batchSize)
}

// EvaluateWith is Evaluate under an explicit execution configuration:
// cfg's Engine (nil = default) and Precision select the compute engine
// and storage-precision policy. The schedule fields of cfg (epochs,
// steps, LR) are ignored.
func EvaluateWith(n *mmnet.Network, cfg Config, rng *tensor.RNG, nBatches, batchSize int) Result {
	var metric float64
	for i := 0; i < nBatches; i++ {
		b := n.Gen.Batch(rng.Split(int64(i)), batchSize)
		out := n.Forward(&ops.Ctx{Eng: cfg.Engine, Precision: cfg.Precision}, b)
		metric += BatchMetric(n.Task, out, b)
	}
	return Result{Metric: metric / float64(nBatches)}
}

// BatchMetric computes the task metric for one forward output.
func BatchMetric(task data.Task, out *ops.Var, b *data.Batch) float64 {
	switch task {
	case data.Classify:
		return accuracy(out, b.Labels)
	case data.MultiLabel:
		return microF1(out, b.Targets.Data())
	case data.Regress:
		return mse(out, b.Targets.Data())
	case data.Segment:
		return dice(out, b.Targets.Data())
	}
	panic(fmt.Sprintf("train: unknown task %v", task))
}

// Predictions returns the argmax class per sample for classification
// outputs [B,K].
func Predictions(out *ops.Var) []int {
	bsz, k := out.Value.Dim(0), out.Value.Dim(1)
	preds := make([]int, bsz)
	d := out.Value.Data()
	for i := 0; i < bsz; i++ {
		best, bi := float32(math.Inf(-1)), 0
		for j := 0; j < k; j++ {
			if d[i*k+j] > best {
				best, bi = d[i*k+j], j
			}
		}
		preds[i] = bi
	}
	return preds
}

func accuracy(out *ops.Var, labels []int) float64 {
	preds := Predictions(out)
	correct := 0
	for i, p := range preds {
		if p == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(labels))
}

func microF1(out *ops.Var, targets []float32) float64 {
	d := out.Value.Data()
	var tp, fp, fn float64
	for i := range d {
		pred := d[i] > 0
		pos := targets[i] > 0.5
		switch {
		case pred && pos:
			tp++
		case pred && !pos:
			fp++
		case !pred && pos:
			fn++
		}
	}
	if tp == 0 {
		return 0
	}
	prec := tp / (tp + fp)
	rec := tp / (tp + fn)
	return 2 * prec * rec / (prec + rec)
}

func mse(out *ops.Var, targets []float32) float64 {
	d := out.Value.Data()
	var s float64
	for i := range d {
		diff := float64(d[i]) - float64(targets[i])
		s += diff * diff
	}
	return s / float64(len(d))
}

func dice(out *ops.Var, mask []float32) float64 {
	d := out.Value.Data()
	var inter, sp, st float64
	for i := range d {
		p := 0.0
		if d[i] > 0 { // sigmoid(logit) > 0.5
			p = 1
		}
		inter += p * float64(mask[i])
		sp += p
		st += float64(mask[i])
	}
	if sp+st == 0 {
		return 1
	}
	return 2 * inter / (sp + st)
}
