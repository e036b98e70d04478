package mmbench

import (
	"fmt"

	"mmbench/internal/data"
	"mmbench/internal/device"
	"mmbench/internal/place"
	"mmbench/internal/plan"
	"mmbench/internal/precision"
	"mmbench/internal/workloads"
)

// PlaceConfig selects a fleet-placement search: which workload's stage
// plan to place across the built-in heterogeneous fleet, under which
// latency SLO and precision menu.
type PlaceConfig struct {
	// Workload and Variant name the network (see Workloads).
	Workload string
	Variant  string
	// Batch defaults to 32 (the runner's default).
	Batch int
	// Paper selects paper-scale models (default true, like RunConfig).
	Paper *bool
	// SLOMs is the latency objective in milliseconds; 0 disables the
	// feasibility filter.
	SLOMs float64
	// Precisions restricts the per-stage storage precisions the search
	// may assign ("f32", "f16", "i8"); empty allows all three.
	Precisions []string
	// Top caps the returned frontier (default 12).
	Top int
}

// PlanNode summarizes one stage node of the compiled plan.
type PlanNode struct {
	Key         string `json:"key"`
	Kernels     int    `json:"kernels"`
	FLOPs       int64  `json:"flops"`
	ParamBytes  int64  `json:"param_bytes"`
	OutBytes    int64  `json:"out_bytes"`
	KernelBytes int64  `json:"kernel_bytes"`
}

// PlanEdge summarizes one inter-stage activation edge.
type PlanEdge struct {
	From  string `json:"from"`
	To    string `json:"to"`
	Bytes int64  `json:"bytes"`
}

// PlaceReport is the outcome of one fleet-placement search.
type PlaceReport struct {
	Workload string  `json:"workload"`
	Variant  string  `json:"variant"`
	Network  string  `json:"network"`
	Batch    int     `json:"batch"`
	SLOMs    float64 `json:"slo_ms,omitempty"`
	// Nodes and Edges describe the compiled stage plan the search
	// placed.
	Nodes []PlanNode `json:"nodes"`
	Edges []PlanEdge `json:"edges"`
	// Frontier, Baselines and the counters come from the planner (see
	// place.Result).
	Frontier     []place.Candidate `json:"frontier"`
	Baselines    []place.Candidate `json:"baselines"`
	Evaluated    int               `json:"evaluated"`
	Feasible     int               `json:"feasible"`
	MinLatencyMs float64           `json:"min_latency_ms"`
}

// Fleet returns the built-in heterogeneous fleet topology (devices and
// interconnect links) the placement planner searches over.
func Fleet() *device.Fleet { return device.DefaultFleet() }

// Place compiles the workload's stage plan and searches stage→device
// placements (with per-stage precision) across the built-in fleet.
func Place(cfg PlaceConfig) (*PlaceReport, error) {
	if cfg.Workload == "" {
		return nil, fmt.Errorf("mmbench: place needs a workload")
	}
	paper := true
	if cfg.Paper != nil {
		paper = *cfg.Paper
	}
	if cfg.Variant == "" {
		info, err := workloads.Get(cfg.Workload)
		if err != nil {
			return nil, err
		}
		cfg.Variant = info.Fusions[0]
	}
	n, err := workloads.Build(cfg.Workload, cfg.Variant, paper, workloads.WeightSeed)
	if err != nil {
		return nil, err
	}
	batch := cfg.Batch
	if batch <= 0 {
		batch = data.DefaultBatchSize
	}
	var precs []precision.Type
	for _, s := range cfg.Precisions {
		t, ok := precision.ParseType(s)
		if !ok {
			return nil, fmt.Errorf("mmbench: unknown precision %q (want f32, f16 or i8)", s)
		}
		precs = append(precs, t)
	}

	fleet := device.DefaultFleet()
	m, err := place.NewModel(fleet, n, batch, nil)
	if err != nil {
		return nil, err
	}
	res := m.Search(place.Options{SLOMs: cfg.SLOMs, Precisions: precs, Top: cfg.Top})

	rep := &PlaceReport{
		Workload:     cfg.Workload,
		Variant:      cfg.Variant,
		Network:      n.Name,
		Batch:        batch,
		SLOMs:        cfg.SLOMs,
		Frontier:     res.Frontier,
		Baselines:    res.Baselines,
		Evaluated:    res.Evaluated,
		Feasible:     res.Feasible,
		MinLatencyMs: res.MinLatencyMs,
	}
	rep.Nodes, rep.Edges = summarizePlan(m.Plan)
	return rep, nil
}

// summarizePlan converts the plan DAG into the report's node/edge
// summaries.
func summarizePlan(p *plan.Plan) ([]PlanNode, []PlanEdge) {
	nodes := make([]PlanNode, len(p.Nodes))
	for i, nd := range p.Nodes {
		nodes[i] = PlanNode{
			Key: nd.Key, Kernels: nd.Kernels, FLOPs: nd.FLOPs,
			ParamBytes: nd.ParamBytes, OutBytes: nd.OutBytes,
			KernelBytes: nd.KernelBytes,
		}
	}
	edges := make([]PlanEdge, len(p.Edges))
	for i, e := range p.Edges {
		edges[i] = PlanEdge{From: p.Nodes[e.From].Key, To: p.Nodes[e.To].Key, Bytes: e.Bytes}
	}
	return nodes, edges
}
