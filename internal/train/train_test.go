package train

import (
	"math"
	"testing"

	"mmbench/internal/autograd"
	"mmbench/internal/data"
	"mmbench/internal/ops"
	"mmbench/internal/tensor"
	"mmbench/internal/workloads"
)

func TestAdamStep(t *testing.T) {
	p := autograd.Param(tensor.Of([]int{1}, 1))
	opt := NewAdam(0.1)
	p.EnsureGrad().Fill(1)
	opt.Step([]*ops.Var{p})
	// First Adam step moves by ≈ lr regardless of gradient scale.
	if math.Abs(float64(p.Value.At(0))-0.9) > 1e-3 {
		t.Fatalf("adam first step %v, want ≈0.9", p.Value.At(0))
	}
}

func TestAdamSkipsNilGrads(t *testing.T) {
	p := autograd.Param(tensor.Of([]int{1}, 5))
	NewAdam(0.1).Step([]*ops.Var{p})
	if p.Value.At(0) != 5 {
		t.Fatal("param without gradient was updated")
	}
}

func TestMetricName(t *testing.T) {
	cases := map[data.Task]string{
		data.Classify: "accuracy", data.MultiLabel: "micro-F1",
		data.Regress: "MSE", data.Segment: "DSC",
	}
	for task, want := range cases {
		if MetricName(task) != want {
			t.Errorf("MetricName(%v) = %q", task, MetricName(task))
		}
	}
}

func TestPredictions(t *testing.T) {
	out := autograd.NewVar(tensor.Of([]int{2, 3}, 0.1, 0.9, 0.2, 2, 1, 0))
	preds := Predictions(out)
	if preds[0] != 1 || preds[1] != 0 {
		t.Fatalf("preds %v", preds)
	}
}

func TestBatchMetricAccuracy(t *testing.T) {
	out := autograd.NewVar(tensor.Of([]int{2, 2}, 1, 0, 0, 1))
	b := &data.Batch{Size: 2, Labels: []int{0, 0}}
	if got := BatchMetric(data.Classify, out, b); got != 0.5 {
		t.Fatalf("accuracy %v, want 0.5", got)
	}
}

func TestBatchMetricMSE(t *testing.T) {
	out := autograd.NewVar(tensor.Of([]int{1, 2}, 1, 3))
	b := &data.Batch{Size: 1, Targets: tensor.Of([]int{1, 2}, 0, 0)}
	if got := BatchMetric(data.Regress, out, b); got != 5 {
		t.Fatalf("mse %v, want 5", got)
	}
}

func TestBatchMetricMicroF1(t *testing.T) {
	// Perfect prediction → F1 = 1.
	out := autograd.NewVar(tensor.Of([]int{1, 3}, 5, -5, 5))
	b := &data.Batch{Size: 1, Targets: tensor.Of([]int{1, 3}, 1, 0, 1)}
	if got := BatchMetric(data.MultiLabel, out, b); got != 1 {
		t.Fatalf("f1 %v, want 1", got)
	}
	// All-negative prediction → F1 = 0.
	out2 := autograd.NewVar(tensor.Of([]int{1, 3}, -5, -5, -5))
	if got := BatchMetric(data.MultiLabel, out2, b); got != 0 {
		t.Fatalf("f1 %v, want 0", got)
	}
}

func TestBatchMetricDice(t *testing.T) {
	out := autograd.NewVar(tensor.Of([]int{1, 1, 2, 2}, 5, 5, -5, -5))
	b := &data.Batch{Size: 1, Targets: tensor.Of([]int{1, 1, 2, 2}, 1, 1, 1, 1)}
	got := BatchMetric(data.Segment, out, b)
	// Prediction covers half the mask: dice = 2·2/(2+4) = 2/3.
	if math.Abs(got-2.0/3) > 1e-9 {
		t.Fatalf("dice %v, want 2/3", got)
	}
}

// Fit must reproduce the paper's central algorithm finding on AV-MNIST:
// the multi-modal network beats both uni-modal baselines, and the zero
// fusion collapses to chance.
func TestFitReproducesMultiModalAdvantage(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	cfg := DefaultConfig()
	fit := func(variant string) float64 {
		n, err := workloads.Build("avmnist", variant, false, 42)
		if err != nil {
			t.Fatal(err)
		}
		return Fit(n, cfg).Metric
	}
	multi := fit("concat")
	uniImage := fit("uni:image")
	uniAudio := fit("uni:audio")
	zero := fit("zero")
	if multi <= uniImage || multi <= uniAudio {
		t.Errorf("multi %f not above uni image %f / audio %f", multi, uniImage, uniAudio)
	}
	if uniImage < 0.6 {
		t.Errorf("uni:image accuracy %f implausibly low", uniImage)
	}
	if zero > 0.25 {
		t.Errorf("zero fusion accuracy %f should be near chance", zero)
	}
}

func TestEvaluateDeterministic(t *testing.T) {
	n, err := workloads.Build("avmnist", "concat", false, 7)
	if err != nil {
		t.Fatal(err)
	}
	a := Evaluate(n, tensor.NewRNG(3), 2, 16)
	b := Evaluate(n, tensor.NewRNG(3), 2, 16)
	if a.Metric != b.Metric {
		t.Fatal("evaluation not deterministic")
	}
}
