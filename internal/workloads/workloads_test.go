package workloads

import (
	"strings"
	"testing"

	"mmbench/internal/data"
	"mmbench/internal/ops"
	"mmbench/internal/tensor"
)

func TestRegistryComplete(t *testing.T) {
	names := Names()
	if len(names) != 9 {
		t.Fatalf("registry has %d workloads, want 9 (Table 3): %v", len(names), names)
	}
	want := []string{"avmnist", "medseg", "medvqa", "mmimdb", "mosei", "mustard", "push", "transfuser", "vnt"}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("names[%d] = %q, want %q", i, names[i], n)
		}
	}
}

func TestInfoFields(t *testing.T) {
	for _, name := range Names() {
		info, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if info.Domain == "" || len(info.Modalities) == 0 || len(info.Fusions) == 0 {
			t.Errorf("%s: incomplete info %+v", name, info)
		}
		found := false
		for _, m := range info.Modalities {
			if m == info.Major {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: major modality %q not in %v", name, info.Major, info.Modalities)
		}
	}
}

func TestGetUnknown(t *testing.T) {
	if _, err := Get("nope"); err == nil {
		t.Fatal("unknown workload accepted")
	}
	if _, err := Build("nope", "concat", false, 1); err == nil {
		t.Fatal("build of unknown workload accepted")
	}
	if _, err := Build("avmnist", "bogus", false, 1); err == nil {
		t.Fatal("unsupported fusion accepted")
	}
	if _, err := Build("avmnist", "uni:lidar", false, 1); err == nil {
		t.Fatal("unknown unimodal variant accepted")
	}
}

// Every workload variant must build and run a trainable-flavour forward
// pass with real numbers.
func TestAllTrainableVariantsForward(t *testing.T) {
	for _, name := range Names() {
		vs, err := Variants(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range vs {
			n, err := Build(name, v, false, 42)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, v, err)
			}
			b := n.Gen.Batch(tensor.NewRNG(1), 2)
			out := n.Forward(ops.Infer(), b)
			if out.Value.Abstract() {
				t.Fatalf("%s/%s: concrete batch produced abstract output", name, v)
			}
			if out.Value.Dim(0) != 2 {
				t.Fatalf("%s/%s: output batch %d", name, v, out.Value.Dim(0))
			}
			loss := n.Loss(ops.Infer(), out, b)
			if loss.Value.Size() != 1 {
				t.Fatalf("%s/%s: loss not scalar", name, v)
			}
		}
	}
}

// Every workload's profile flavour must run in analytic mode (abstract
// batch) for its default fusion.
func TestAllProfileVariantsAnalytic(t *testing.T) {
	for _, name := range Names() {
		info, _ := Get(name)
		n, err := Build(name, info.Fusions[0], true, 42)
		if err != nil {
			t.Fatalf("%s profile: %v", name, err)
		}
		b := n.Gen.AbstractBatch(4)
		out := n.Forward(ops.Infer(), b)
		if !out.Value.Abstract() {
			t.Fatalf("%s profile: abstract batch produced concrete output", name)
		}
	}
}

func TestUnimodalVariantsStructure(t *testing.T) {
	n, err := Build("avmnist", "uni:image", false, 1)
	if err != nil {
		t.Fatal(err)
	}
	if n.NumModalities() != 1 {
		t.Fatalf("unimodal network has %d encoders", n.NumModalities())
	}
	if !strings.HasSuffix(n.Name, "uni:image") {
		t.Fatalf("unimodal name %q", n.Name)
	}
}

func TestTaskAssignments(t *testing.T) {
	cases := map[string]data.Task{
		"avmnist": data.Classify, "mmimdb": data.MultiLabel, "mosei": data.Classify,
		"mustard": data.Classify, "medvqa": data.Classify, "medseg": data.Segment,
		"push": data.Regress, "vnt": data.Classify, "transfuser": data.Regress,
	}
	for name, task := range cases {
		info, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if info.Task != task {
			t.Errorf("%s task %v, want %v", name, info.Task, task)
		}
	}
}

func TestProfileVariantLarger(t *testing.T) {
	small, err := Build("mmimdb", "concat", false, 1)
	if err != nil {
		t.Fatal(err)
	}
	large, err := Build("mmimdb", "concat", true, 1)
	if err != nil {
		t.Fatal(err)
	}
	if large.ParamBytes() <= small.ParamBytes() {
		t.Fatalf("profile variant (%d B) not larger than trainable (%d B)",
			large.ParamBytes(), small.ParamBytes())
	}
}

func TestSegmentationOutputShape(t *testing.T) {
	n, err := Build("medseg", "transformer", false, 1)
	if err != nil {
		t.Fatal(err)
	}
	b := n.Gen.Batch(tensor.NewRNG(2), 2)
	out := n.Forward(ops.Infer(), b)
	if s := out.Value.Shape(); s[0] != 2 || s[1] != 1 || s[2] != 16 || s[3] != 16 {
		t.Fatalf("segmentation output %v", s)
	}
}

func TestWaypointOutputShape(t *testing.T) {
	n, err := Build("transfuser", "transformer", false, 1)
	if err != nil {
		t.Fatal(err)
	}
	b := n.Gen.Batch(tensor.NewRNG(2), 3)
	out := n.Forward(ops.Infer(), b)
	if s := out.Value.Shape(); s[0] != 3 || s[1] != 8 {
		t.Fatalf("waypoint output %v, want [3 8]", s)
	}
}

func TestBuildDeterministic(t *testing.T) {
	a, err := Build("avmnist", "concat", false, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build("avmnist", "concat", false, 5)
	if err != nil {
		t.Fatal(err)
	}
	pa, pb := a.Params(), b.Params()
	if len(pa) != len(pb) {
		t.Fatalf("param counts differ: %d vs %d", len(pa), len(pb))
	}
	for i := range pa {
		for j := range pa[i].Value.Data() {
			if pa[i].Value.Data()[j] != pb[i].Value.Data()[j] {
				t.Fatal("same seed produced different weights")
			}
		}
	}
}

// BenchmarkBuild prices one paper-scale build, which every analytic miss
// pays: the sweep's costliest networks, whose time is mostly weight
// initialisation.
func BenchmarkBuild(b *testing.B) {
	for _, c := range []struct{ name, variant string }{{"transfuser", "transformer"}, {"mosei", "concat"}} {
		b.Run(c.name+"/"+c.variant, func(b *testing.B) {
			for b.Loop() {
				if _, err := Build(c.name, c.variant, true, 7); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
