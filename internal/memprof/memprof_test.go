package memprof

import (
	"testing"

	"mmbench/internal/device"
	"mmbench/internal/ops"
	"mmbench/internal/trace"
	"mmbench/internal/workloads"
)

func runTrace(t *testing.T, batch int) (*trace.Trace, int) {
	t.Helper()
	n, err := workloads.Build("avmnist", "concat", true, 1)
	if err != nil {
		t.Fatal(err)
	}
	b := trace.NewBuilder(device.RTX2080Ti(), n.Modalities)
	c := &ops.Ctx{Rec: b}
	n.Forward(c, n.Gen.AbstractBatch(batch))
	return b.Finish(), batch
}

func TestMeasureCategories(t *testing.T) {
	n, err := workloads.Build("avmnist", "concat", true, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr, batch := runTrace(t, 32)
	p := Measure(n, tr, batch)
	if p.ModelBytes <= 0 || p.DatasetBytes <= 0 || p.IntermediateBytes <= 0 {
		t.Fatalf("empty categories: %+v", p)
	}
	if p.Total() != p.ModelBytes+p.DatasetBytes+p.IntermediateBytes {
		t.Error("Total mismatch")
	}
	if p.AllocatorDemand() <= p.Total() {
		t.Error("allocator demand should exceed raw total (workspace factor)")
	}
}

func TestScalingWithBatch(t *testing.T) {
	n, err := workloads.Build("avmnist", "concat", true, 1)
	if err != nil {
		t.Fatal(err)
	}
	tr40, _ := runTrace(t, 40)
	tr400, _ := runTrace(t, 400)
	p40 := Measure(n, tr40, 40)
	p400 := Measure(n, tr400, 400)
	// Model memory is batch-independent; dataset and intermediates scale
	// ~linearly (Figure 13).
	if p40.ModelBytes != p400.ModelBytes {
		t.Errorf("model bytes changed with batch: %d vs %d", p40.ModelBytes, p400.ModelBytes)
	}
	if p400.DatasetBytes != 10*p40.DatasetBytes {
		t.Errorf("dataset bytes %d at b400, want 10× %d", p400.DatasetBytes, p40.DatasetBytes)
	}
	ratio := float64(p400.IntermediateBytes) / float64(p40.IntermediateBytes)
	if ratio < 8 || ratio > 12 {
		t.Errorf("intermediate scaling %f, want ≈10", ratio)
	}
}

func TestBatchBytesTokens(t *testing.T) {
	n, err := workloads.Build("mmimdb", "concat", false, 1)
	if err != nil {
		t.Fatal(err)
	}
	b1 := BatchBytes(n.Gen, 1)
	b2 := BatchBytes(n.Gen, 2)
	if b2 != 2*b1 {
		t.Errorf("batch bytes not linear: %d vs %d", b1, b2)
	}
	if b1 <= 0 {
		t.Error("zero batch bytes")
	}
}

func TestMB(t *testing.T) {
	if MB(1<<20) != 1 {
		t.Errorf("MB(1MiB) = %f", MB(1<<20))
	}
}
