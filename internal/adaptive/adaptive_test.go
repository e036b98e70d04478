package adaptive

import (
	"testing"

	"mmbench/internal/device"
	"mmbench/internal/engine"
	"mmbench/internal/ops"
	"mmbench/internal/tensor"
	"mmbench/internal/train"
	"mmbench/internal/workloads"
)

func trainedPair(t *testing.T) (*Cascade, *tensor.RNG) {
	t.Helper()
	full, err := workloads.Build("avmnist", "concat", false, 42)
	if err != nil {
		t.Fatal(err)
	}
	major, err := workloads.Build("avmnist", "uni:image", false, 42)
	if err != nil {
		t.Fatal(err)
	}
	// The networks must agree on the data distribution.
	major.Gen = full.Gen
	cfg := train.DefaultConfig()
	cfg.Epochs = 3
	train.Fit(full, cfg)
	train.Fit(major, cfg)
	c, err := New(major, full, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	return c, tensor.NewRNG(777)
}

func TestNewValidation(t *testing.T) {
	full, _ := workloads.Build("avmnist", "concat", false, 1)
	major, _ := workloads.Build("avmnist", "uni:image", false, 1)
	major.Gen = full.Gen
	if _, err := New(major, full, 0); err == nil {
		t.Error("zero threshold accepted")
	}
	if _, err := New(major, full, 1.5); err == nil {
		t.Error("threshold > 1 accepted")
	}
	reg, _ := workloads.Build("push", "concat", false, 1)
	if _, err := New(major, reg, 0.9); err == nil {
		t.Error("regression network accepted")
	}
	other, _ := workloads.Build("avmnist", "uni:image", false, 2)
	if _, err := New(other, full, 0.9); err == nil {
		t.Error("mismatched generators accepted")
	}
}

func TestCascadeTradeoff(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	c, rng := trainedPair(t)
	res, err := Evaluate(c, device.RTX2080Ti(), rng, 4, 64)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's observation: most samples are solvable from the major
	// modality, so the cascade escalates a minority and stays cheap.
	if res.EscalationRate > 0.7 {
		t.Errorf("escalation rate %f too high", res.EscalationRate)
	}
	if res.CostRatio >= 1 {
		t.Errorf("cascade cost ratio %f not below always-full", res.CostRatio)
	}
	// Accuracy must sit between (or match) the endpoints, near the full
	// network's.
	if res.CascadeAccuracy < res.MajorAccuracy-0.02 {
		t.Errorf("cascade accuracy %f below major-only %f", res.CascadeAccuracy, res.MajorAccuracy)
	}
	if res.CascadeAccuracy < res.FullAccuracy-0.12 {
		t.Errorf("cascade accuracy %f far below full %f", res.CascadeAccuracy, res.FullAccuracy)
	}
}

// TestEvaluateReusesCascadeForwards pins the fix that stopped Evaluate
// re-running both networks per batch: its accuracies must equal a naive
// recomputation exactly (eager kernels are deterministic), and the
// network-forward count must stay at ≤2 per batch — the cascade's own
// forwards plus at most one extra full forward — plus the two abstract
// forwards the analytic cost model's plan compilations perform.
func TestEvaluateReusesCascadeForwards(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	c, _ := trainedPair(t)
	const nBatches, batchSize = 4, 32

	// Naive reference: dedicated forwards for every strategy, the way
	// Evaluate worked before the fix. Uses its own RNG at the same seed
	// because Split advances the parent stream.
	var correctCascade, correctMajor, correctFull, total int
	naiveRNG := tensor.NewRNG(777)
	for bi := 0; bi < nBatches; bi++ {
		b := c.Full.Gen.Batch(naiveRNG.Split(int64(bi)), batchSize)
		preds, _ := c.Classify(b)
		majorPreds := train.Predictions(c.Major.Forward(ops.Infer(), b))
		fullPreds := train.Predictions(c.Full.Forward(ops.Infer(), b))
		for i := 0; i < b.Size; i++ {
			total++
			if preds[i] == b.Labels[i] {
				correctCascade++
			}
			if majorPreds[i] == b.Labels[i] {
				correctMajor++
			}
			if fullPreds[i] == b.Labels[i] {
				correctFull++
			}
		}
	}

	before := engine.Default().Stats().Branches
	res, err := Evaluate(c, device.RTX2080Ti(), tensor.NewRNG(777), nBatches, batchSize)
	if err != nil {
		t.Fatal(err)
	}
	after := engine.Default().Stats().Branches

	if want := float64(correctCascade) / float64(total); res.CascadeAccuracy != want {
		t.Errorf("cascade accuracy %v != naive recomputation %v", res.CascadeAccuracy, want)
	}
	if want := float64(correctMajor) / float64(total); res.MajorAccuracy != want {
		t.Errorf("major accuracy %v != naive recomputation %v", res.MajorAccuracy, want)
	}
	if want := float64(correctFull) / float64(total); res.FullAccuracy != want {
		t.Errorf("full accuracy %v != naive recomputation %v", res.FullAccuracy, want)
	}

	forwards := (after.ParallelForwards + after.SequentialForwards) -
		(before.ParallelForwards + before.SequentialForwards)
	if max := int64(2*nBatches + 2); forwards > max {
		t.Errorf("Evaluate ran %d forwards, want ≤ %d (2 per batch + 2 cost-model compilations)", forwards, max)
	}
}

func TestClassifyEscalationMask(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	c, rng := trainedPair(t)
	b := c.Full.Gen.Batch(rng, 32)
	preds, escalated := c.Classify(b)
	if len(preds) != 32 || len(escalated) != 32 {
		t.Fatalf("sizes %d/%d", len(preds), len(escalated))
	}
	// A very strict threshold escalates everything.
	c.Threshold = 0.999999
	_, allEsc := c.Classify(b)
	count := 0
	for _, e := range allEsc {
		if e {
			count++
		}
	}
	if count < 30 {
		t.Errorf("strict threshold escalated only %d/32", count)
	}
}
