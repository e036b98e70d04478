package place

import (
	"math"
	"reflect"
	"testing"

	"mmbench/internal/device"
	"mmbench/internal/mmnet"
	"mmbench/internal/precision"
	"mmbench/internal/workloads"
)

func buildModel(t *testing.T, workload string) *Model {
	t.Helper()
	n, err := workloads.Build(workload, "concat", false, 42)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewModel(device.DefaultFleet(), n, 32, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func uniformPlacement(m *Model, dev string, p precision.Type) Placement {
	pl := make(Placement, len(m.Plan.Nodes))
	for _, nd := range m.Plan.Nodes {
		pl[nd.Key] = Assignment{Device: dev, Precision: p}
	}
	return pl
}

func TestEvaluateMatchesSearchBaseline(t *testing.T) {
	m := buildModel(t, "avmnist")
	res := m.Search(Options{})
	for _, base := range res.Baselines {
		dev := base.Stages[0].Device
		cand, err := m.Evaluate(uniformPlacement(m, dev, precision.F32))
		if err != nil {
			t.Fatal(err)
		}
		if cand.LatencyMs != base.LatencyMs || cand.EnergyMJ != base.EnergyMJ {
			t.Errorf("%s: Evaluate (%.4f ms, %.4f mJ) != baseline (%.4f ms, %.4f mJ)",
				dev, cand.LatencyMs, cand.EnergyMJ, base.LatencyMs, base.EnergyMJ)
		}
		if cand.ErrBound != 0 {
			t.Errorf("%s: f32 placement has error bound %v", dev, cand.ErrBound)
		}
	}
}

func TestEvaluateRejectsBadPlacements(t *testing.T) {
	m := buildModel(t, "avmnist")
	pl := uniformPlacement(m, "2080ti", precision.F32)

	delete(pl, mmnet.StageHead)
	if _, err := m.Evaluate(pl); err == nil {
		t.Error("placement missing the head node accepted")
	}

	pl = uniformPlacement(m, "warehouse", precision.F32)
	if _, err := m.Evaluate(pl); err == nil {
		t.Error("unknown device accepted")
	}
}

func TestSearchParetoFrontier(t *testing.T) {
	m := buildModel(t, "avmnist")
	res := m.Search(Options{Top: -1})

	// avmnist: 4 nodes × (4 devices × 3 precisions) assignments each.
	if want := 20736; res.Evaluated != want {
		t.Fatalf("evaluated %d placements, want %d", res.Evaluated, want)
	}
	if res.Feasible != res.Evaluated {
		t.Fatalf("no SLO, yet only %d/%d feasible", res.Feasible, res.Evaluated)
	}
	if len(res.Frontier) == 0 {
		t.Fatal("empty frontier")
	}
	if res.UniformPrecisionOnly {
		t.Error("avmnist search space flagged as too large")
	}
	if res.Frontier[0].LatencyMs != res.MinLatencyMs {
		t.Errorf("frontier head %.4f ms != min latency %.4f ms", res.Frontier[0].LatencyMs, res.MinLatencyMs)
	}
	// Sorted by latency, and mutually non-dominated on the other axes.
	for i := 1; i < len(res.Frontier); i++ {
		a, b := res.Frontier[i-1], res.Frontier[i]
		if a.LatencyMs > b.LatencyMs {
			t.Fatalf("frontier not latency-sorted at %d: %.4f > %.4f", i, a.LatencyMs, b.LatencyMs)
		}
		if a.EnergyMJ <= b.EnergyMJ && a.ErrBound <= b.ErrBound {
			t.Errorf("frontier[%d] dominated by frontier[%d]", i, i-1)
		}
	}
	// The heterogeneous payoff the planner exists for: some frontier
	// placement splits stages across devices.
	split := false
	for _, c := range res.Frontier {
		devs := map[string]bool{}
		for _, a := range c.Placement {
			devs[a.Device] = true
		}
		if len(devs) > 1 {
			split = true
			break
		}
	}
	if !split {
		t.Error("no frontier placement uses more than one device")
	}
}

func TestSearchSLOFilter(t *testing.T) {
	m := buildModel(t, "avmnist")
	open := m.Search(Options{})

	// An SLO below the best achievable latency rejects everything but
	// still reports how close the fleet can get.
	strict := m.Search(Options{SLOMs: open.MinLatencyMs / 2})
	if strict.Feasible != 0 || len(strict.Frontier) != 0 {
		t.Fatalf("impossible SLO admitted %d placements", strict.Feasible)
	}
	if strict.MinLatencyMs != open.MinLatencyMs {
		t.Errorf("min latency drifted: %v vs %v", strict.MinLatencyMs, open.MinLatencyMs)
	}
	if strict.Evaluated != open.Evaluated {
		t.Errorf("SLO changed the enumeration: %d vs %d", strict.Evaluated, open.Evaluated)
	}

	// A generous SLO admits everything.
	loose := m.Search(Options{SLOMs: 1e6})
	if loose.Feasible != loose.Evaluated {
		t.Errorf("loose SLO: %d/%d feasible", loose.Feasible, loose.Evaluated)
	}
	for _, b := range loose.Baselines {
		if !b.Feasible {
			t.Errorf("baseline %s infeasible under loose SLO", b.Stages[0].Device)
		}
	}
}

// TestRepeatedPrecisionSearchesOnce: a menu naming one precision three
// times searches exactly what the single-entry menu does.
func TestRepeatedPrecisionSearchesOnce(t *testing.T) {
	m := buildModel(t, "avmnist")
	once := m.Search(Options{Precisions: []precision.Type{precision.F16}, Top: -1})
	thrice := m.Search(Options{Precisions: []precision.Type{precision.F16, precision.F16, precision.F16}, Top: -1})
	if thrice.Evaluated != once.Evaluated {
		t.Fatalf("repeated menu evaluated %d placements, single menu %d", thrice.Evaluated, once.Evaluated)
	}
	if !reflect.DeepEqual(thrice.Frontier, once.Frontier) {
		t.Fatalf("repeated menu's frontier differs:\n%+v\n%+v", thrice.Frontier, once.Frontier)
	}
}

func TestPrecisionTradesErrorForLatency(t *testing.T) {
	m := buildModel(t, "avmnist")
	f32, err := m.Evaluate(uniformPlacement(m, "nano", precision.F32))
	if err != nil {
		t.Fatal(err)
	}
	i8, err := m.Evaluate(uniformPlacement(m, "nano", precision.I8))
	if err != nil {
		t.Fatal(err)
	}
	if i8.LatencyMs >= f32.LatencyMs {
		t.Errorf("i8 latency %.4f ms not below f32 %.4f ms", i8.LatencyMs, f32.LatencyMs)
	}
	if i8.ErrBound <= f32.ErrBound {
		t.Errorf("i8 error bound %v not above f32 %v", i8.ErrBound, f32.ErrBound)
	}
}

func TestCrossDeviceEdgesPriced(t *testing.T) {
	m := buildModel(t, "avmnist")
	pl := uniformPlacement(m, "2080ti", precision.F32)
	colocated, err := m.Evaluate(pl)
	if err != nil {
		t.Fatal(err)
	}
	// Move the head to the slow-linked nano: the fused handoff must now
	// pay link time, visible in the fusion stage's edge cost.
	pl[mmnet.StageHead] = Assignment{Device: "nano", Precision: precision.F32}
	remote, err := m.Evaluate(pl)
	if err != nil {
		t.Fatal(err)
	}
	var fusion *StageCost
	for i := range remote.Stages {
		if remote.Stages[i].Stage == mmnet.StageFusion {
			fusion = &remote.Stages[i]
		}
	}
	if fusion == nil {
		t.Fatal("no fusion stage in breakdown")
	}
	if fusion.EdgeMs <= 0 || fusion.EdgeTo != "nano" {
		t.Errorf("fusion→head edge not priced: %+v", fusion)
	}
	if remote.LatencyMs <= colocated.LatencyMs {
		t.Errorf("remote head latency %.4f ms not above co-located %.4f ms", remote.LatencyMs, colocated.LatencyMs)
	}
}

// TestUniformPrecisionFallback drives the search space past the
// exhaustive enumeration bound with a wide synthetic fleet and checks
// the planner falls back to fleet-wide uniform precision.
func TestUniformPrecisionFallback(t *testing.T) {
	n, err := workloads.Build("mosei", "concat", false, 42)
	if err != nil {
		t.Fatal(err)
	}
	f := &device.Fleet{}
	names := make([]string, 8)
	for i := range names {
		p := *device.JetsonOrin()
		p.Name = string(rune('a'+i)) + "-node"
		names[i] = p.Name
		f.Devices = append(f.Devices, &p)
	}
	for i := range names {
		for j := i + 1; j < len(names); j++ {
			f.Links = append(f.Links, device.Link{A: names[i], B: names[j], GBs: 1, LatencyUs: 50})
		}
	}
	m, err := NewModel(f, n, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	// mosei has 5 nodes: (8×3)^5 ≈ 8M exceeds the bound, 8^5 × 3 does not.
	res := m.Search(Options{Top: 4})
	if !res.UniformPrecisionOnly {
		t.Fatal("wide fleet did not trigger the uniform-precision fallback")
	}
	if want := int(math.Pow(8, 5)) * 3; res.Evaluated != want {
		t.Fatalf("evaluated %d, want %d", res.Evaluated, want)
	}
	for _, c := range res.Frontier {
		var seen *precision.Type
		for _, a := range c.Placement {
			a := a
			if seen == nil {
				seen = &a.Precision
			} else if *seen != a.Precision {
				t.Fatalf("fallback frontier mixes precisions: %+v", c.Placement)
			}
		}
	}
}
