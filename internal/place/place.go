// Package place plans stage placement across a heterogeneous device
// fleet. It prices a compiled stage plan (internal/plan) on every
// (device, precision) assignment per node, charges inter-stage
// activation transfers to the fleet's interconnect links, and
// enumerates placements under a latency SLO to return the Pareto
// frontier of modeled latency vs. energy proxy vs. output-error bound
// — the heterogeneous-deployment question the paper's edge-device
// inversions raise, with quantization as a first-class axis
// (QuTiBench's framing).
package place

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"mmbench/internal/device"
	"mmbench/internal/mmnet"
	"mmbench/internal/plan"
	"mmbench/internal/precision"
)

// dispatchHostFraction mirrors trace.Builder's per-kernel host
// dispatch charge: every kernel launch pays one framework op on the
// assigned device's host before the GPU time.
const dispatchHostFraction = 1.0

// linkWatts is the active power drawn while an activation crosses an
// interconnect link (NIC/radio + DMA), the energy proxy's edge term.
const linkWatts = 2.5

// maxCandidates bounds the exhaustive per-node precision enumeration;
// larger search spaces fall back to fleet-wide uniform precision.
const maxCandidates = 1 << 19

// Assignment places one stage node: which fleet device runs it and at
// which storage precision.
type Assignment struct {
	Device    string         `json:"device"`
	Precision precision.Type `json:"precision"`
}

// Placement maps stage-node keys ("encoder:<modality>", "fusion",
// "head") to assignments.
type Placement map[string]Assignment

// StageCost is the per-node breakdown of an evaluated placement.
type StageCost struct {
	Stage     string         `json:"stage"`
	Device    string         `json:"device"`
	Precision precision.Type `json:"precision"`
	// Ms is the node's on-device time: kernel time, per-kernel dispatch,
	// host segments and the node's own h2d/d2h copies.
	Ms float64 `json:"ms"`
	// EdgeBytes is the activation leaving the node over its outgoing
	// edge, already scaled to the node's storage precision. EdgeMs is
	// the link time to the consumer's device (0 when co-located), whose
	// name is EdgeTo.
	EdgeBytes int64   `json:"edge_bytes"`
	EdgeMs    float64 `json:"edge_ms"`
	EdgeTo    string  `json:"edge_to,omitempty"`
}

// Candidate is one evaluated placement.
type Candidate struct {
	Placement Placement `json:"placement"`
	// LatencyMs models the SLO-relevant end-to-end time: shared batch
	// setup, the slowest encoder chain (same-device encoders serialize,
	// cross-device encoders overlap) plus its gather transfer, then
	// fusion, the handoff link, and the head.
	LatencyMs float64 `json:"latency_ms"`
	// EnergyMJ is the energy proxy in millijoules: per-node busy seconds
	// × device TDP plus link-active transfer energy.
	EnergyMJ float64 `json:"energy_mj"`
	// ErrBound bounds the output error introduced by reduced-precision
	// stages (sum of per-node coefficients calibrated against measured
	// eager-mode output errors; 0 for all-f32 placements).
	ErrBound float64 `json:"err_bound"`
	// Feasible reports whether LatencyMs meets the search SLO.
	Feasible bool        `json:"feasible"`
	Stages   []StageCost `json:"stages"`
}

// Options configure a placement search.
type Options struct {
	// SLOMs is the latency objective in milliseconds; 0 disables the
	// feasibility filter.
	SLOMs float64
	// Precisions are the storage precisions the search may assign per
	// node; empty means f32, f16 and i8.
	Precisions []precision.Type
	// Top caps the returned frontier (default 12; <0 returns all).
	Top int
}

// Result is the outcome of a placement search.
type Result struct {
	// Frontier is the Pareto frontier over (latency, energy, error
	// bound) of SLO-feasible placements, sorted by latency.
	Frontier []Candidate `json:"frontier"`
	// Baselines evaluates the whole network on each single fleet device
	// at f32 — the paper's per-device stage-imbalance table, and the
	// reference the frontier's split placements beat.
	Baselines []Candidate `json:"baselines"`
	// Evaluated and Feasible count enumerated and SLO-meeting
	// placements; MinLatencyMs is the best latency seen regardless of
	// the SLO.
	Evaluated    int     `json:"evaluated"`
	Feasible     int     `json:"feasible"`
	MinLatencyMs float64 `json:"min_latency_ms"`
	// UniformPrecisionOnly reports that the search space was too large
	// for per-node precision enumeration and precisions were applied
	// fleet-wide instead.
	UniformPrecisionOnly bool `json:"uniform_precision_only,omitempty"`
}

// errCoeff is the per-node output-error contribution of a storage
// precision, calibrated against the measured eager-mode output errors
// of the built-in workloads (README mixed-precision table): summed
// over a network's nodes it upper-bounds the observed max element
// error of the uniform policy at that precision.
func errCoeff(t precision.Type) float64 {
	switch t {
	case precision.F16:
		return 0.005
	case precision.I8:
		return 0.05
	}
	return 0
}

// Model prices one network's stage plan on a fleet. It compiles the
// plan once per candidate precision (precision changes kernel byte
// footprints, not the DAG) and precomputes every (node, device,
// precision) cost, so evaluating a placement is O(nodes + edges).
type Model struct {
	Fleet *device.Fleet
	// Plan is the f32 reference plan (node keys, edge byte counts,
	// parameter footprints).
	Plan       *plan.Plan
	Precisions []precision.Type

	devs    []*device.Profile
	precIdx map[precision.Type]int
	// nodeSec[node][dev*P+prec] is the node's on-device seconds.
	nodeSec [][]float64
	// edgeSec[edge][(src*D+dst)*P+prec] is the edge's link seconds with
	// the source node stored at prec (math.Inf(1) for unlinked pairs).
	edgeSec [][]float64
	// preSec[dev] is the shared pre-stage host work on each device.
	preSec []float64
	// fusionID and headID index Plan.Nodes.
	fusionID, headID int
}

// uniform returns the policy storing every stage at t.
func uniform(t precision.Type) precision.Policy {
	return precision.Policy{Encoder: t, Fusion: t, Head: t}
}

// NewModel compiles the network's stage plan at every candidate
// precision and precomputes the placement cost tables.
func NewModel(f *device.Fleet, n *mmnet.Network, batchSize int, precs []precision.Type) (*Model, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	if len(precs) == 0 {
		precs = []precision.Type{precision.F32, precision.F16, precision.I8}
	}
	m := &Model{
		Fleet:      f,
		Precisions: precs,
		devs:       f.Devices,
		precIdx:    make(map[precision.Type]int, len(precs)),
	}
	plans := make([]*plan.Plan, len(precs))
	for i, t := range precs {
		p, err := plan.Compile(n, plan.Options{BatchSize: batchSize, Precision: uniform(t)})
		if err != nil {
			return nil, err
		}
		plans[i] = p
		m.precIdx[t] = i
		if t == precision.F32 {
			m.Plan = p
		}
	}
	if m.Plan == nil {
		// No f32 among the candidates: compile the reference plan too.
		p, err := plan.Compile(n, plan.Options{BatchSize: batchSize})
		if err != nil {
			return nil, err
		}
		m.Plan = p
	}

	nNodes := len(m.Plan.Nodes)
	if nNodes < 2 {
		return nil, fmt.Errorf("place: plan for %s has no fusion/head nodes", n.Name)
	}
	m.fusionID, m.headID = nNodes-2, nNodes-1
	D, P := len(m.devs), len(precs)

	m.nodeSec = make([][]float64, nNodes)
	for ni := range m.nodeSec {
		row := make([]float64, D*P)
		for di, d := range m.devs {
			for pi := range precs {
				row[di*P+pi] = nodeSeconds(&plans[pi].Nodes[ni], d)
			}
		}
		m.nodeSec[ni] = row
	}

	m.edgeSec = make([][]float64, len(m.Plan.Edges))
	for ei, e := range m.Plan.Edges {
		row := make([]float64, D*D*P)
		for si, sd := range m.devs {
			for di, dd := range m.devs {
				for pi, t := range precs {
					bytes := int64(float64(e.Bytes) * float64(t.Bits()) / 32)
					sec, err := f.TransferSeconds(sd.Name, dd.Name, bytes)
					if err != nil {
						sec = math.Inf(1)
					}
					row[(si*D+di)*P+pi] = sec
				}
			}
		}
		m.edgeSec[ei] = row
	}

	m.preSec = make([]float64, D)
	for di, d := range m.devs {
		for _, h := range m.Plan.Pre {
			m.preSec[di] += d.HostSeconds(h.FLOPs, h.Bytes, h.NOps)
		}
	}
	return m, nil
}

// nodeSeconds prices one node's full on-device time: kernel time plus
// per-kernel dispatch, host segments, and the node's own copies.
func nodeSeconds(n *plan.Node, d *device.Profile) float64 {
	var t float64
	for _, s := range n.Specs {
		t += d.Price(s).Seconds + d.HostOpUs*dispatchHostFraction*1e-6
	}
	for _, h := range n.Hosts {
		t += d.HostSeconds(h.FLOPs, h.Bytes, h.NOps)
	}
	for _, tr := range n.Transfers {
		t += d.TransferSeconds(tr.Bytes)
	}
	return t
}

// choice is a compact placement: per node, devIdx*P + precIdx.
type choice []uint8

// evalCompact scores one compact placement. devBusy is caller-scratch
// of len(devs).
func (m *Model) evalCompact(ch choice, devBusy []float64) (lat, energy, errB float64) {
	P := len(m.Precisions)
	D := len(m.devs)
	for i := range devBusy {
		devBusy[i] = 0
	}
	// Encoder tier: same-device encoders serialize, different devices
	// overlap.
	for ni := 0; ni < m.fusionID; ni++ {
		di, pi := int(ch[ni])/P, int(ch[ni])%P
		sec := m.nodeSec[ni][di*P+pi]
		devBusy[di] += sec
		energy += sec * m.devs[di].TDPWatts
		errB += errCoeff(m.Precisions[pi])
	}
	fdi, fpi := int(ch[m.fusionID])/P, int(ch[m.fusionID])%P
	hdi, hpi := int(ch[m.headID])/P, int(ch[m.headID])%P

	// Each encoder's gather arrives at fusion after its device drains
	// and its activation crosses the link.
	var fusionStart float64
	for ei, e := range m.Plan.Edges {
		if e.To != m.fusionID {
			continue
		}
		di, pi := int(ch[e.From])/P, int(ch[e.From])%P
		x := m.edgeSec[ei][(di*D+fdi)*P+pi]
		if arrive := devBusy[di] + x; arrive > fusionStart {
			fusionStart = arrive
		}
		energy += x * linkWatts
	}

	fusionSec := m.nodeSec[m.fusionID][fdi*P+fpi]
	headSec := m.nodeSec[m.headID][hdi*P+hpi]
	var handoff float64
	for ei, e := range m.Plan.Edges {
		if e.From == m.fusionID && e.To == m.headID {
			handoff = m.edgeSec[ei][(fdi*D+hdi)*P+fpi]
			energy += handoff * linkWatts
		}
	}

	pre := m.preSec[fdi]
	lat = pre + fusionStart + fusionSec + handoff + headSec
	energy += pre*m.devs[fdi].TDPWatts +
		fusionSec*m.devs[fdi].TDPWatts + headSec*m.devs[hdi].TDPWatts
	errB += errCoeff(m.Precisions[fpi]) + errCoeff(m.Precisions[hpi])
	return lat, energy, errB
}

// Evaluate scores an explicit placement with the per-stage breakdown.
// Every plan node must be assigned to a known fleet device and a
// precision the model was built with.
func (m *Model) Evaluate(pl Placement) (Candidate, error) {
	P := len(m.Precisions)
	ch := make(choice, len(m.Plan.Nodes))
	for ni, node := range m.Plan.Nodes {
		a, ok := pl[node.Key]
		if !ok {
			return Candidate{}, fmt.Errorf("place: placement missing node %q", node.Key)
		}
		di := m.devIndex(a.Device)
		if di < 0 {
			return Candidate{}, fmt.Errorf("place: unknown fleet device %q for node %q", a.Device, node.Key)
		}
		pi, ok := m.precIdx[a.Precision]
		if !ok {
			return Candidate{}, fmt.Errorf("place: precision %s not in model for node %q", a.Precision, node.Key)
		}
		ch[ni] = uint8(di*P + pi)
	}
	return m.detail(ch), nil
}

func (m *Model) devIndex(name string) int {
	for i, d := range m.devs {
		if d.Name == name {
			return i
		}
	}
	return -1
}

// detail expands a compact placement into a full Candidate.
func (m *Model) detail(ch choice) Candidate {
	P, D := len(m.Precisions), len(m.devs)
	devBusy := make([]float64, D)
	lat, energy, errB := m.evalCompact(ch, devBusy)

	c := Candidate{
		Placement: make(Placement, len(m.Plan.Nodes)),
		LatencyMs: lat * 1e3,
		EnergyMJ:  energy * 1e3,
		ErrBound:  errB,
	}
	for ni, node := range m.Plan.Nodes {
		di, pi := int(ch[ni])/P, int(ch[ni])%P
		sc := StageCost{
			Stage:     node.Key,
			Device:    m.devs[di].Name,
			Precision: m.Precisions[pi],
			Ms:        m.nodeSec[ni][di*P+pi] * 1e3,
		}
		for ei, e := range m.Plan.Edges {
			if e.From != ni {
				continue
			}
			ddi := int(ch[e.To]) / P
			sc.EdgeBytes = int64(float64(e.Bytes) * float64(m.Precisions[pi].Bits()) / 32)
			sc.EdgeMs = m.edgeSec[ei][(di*D+ddi)*P+pi] * 1e3
			sc.EdgeTo = m.devs[ddi].Name
		}
		c.Placement[node.Key] = Assignment{Device: m.devs[di].Name, Precision: m.Precisions[pi]}
		c.Stages = append(c.Stages, sc)
	}
	return c
}

// Search enumerates placements of the plan's nodes over the fleet's
// devices and the candidate precisions, filters by the latency SLO,
// and returns the Pareto frontier over (latency, energy, error bound)
// plus the single-device f32 baselines.
func (m *Model) Search(opts Options) *Result {
	if opts.Top == 0 {
		opts.Top = 12
	}
	allowed := opts.Precisions
	if len(allowed) == 0 {
		allowed = m.Precisions
	}
	// A precision the menu repeats is one choice, not one per mention.
	precChoices := make([]int, 0, len(allowed))
	for _, t := range allowed {
		if pi, ok := m.precIdx[t]; ok && !slices.Contains(precChoices, pi) {
			precChoices = append(precChoices, pi)
		}
	}
	if len(precChoices) == 0 {
		precChoices = []int{0}
	}

	nNodes := len(m.Plan.Nodes)
	D, P := len(m.devs), len(m.Precisions)
	res := &Result{MinLatencyMs: math.Inf(1)}

	// Per-node choice space; fall back to fleet-wide uniform precision
	// when exhaustive per-node enumeration would blow up.
	perNode := float64(D * len(precChoices))
	if math.Pow(perNode, float64(nNodes)) > maxCandidates {
		res.UniformPrecisionOnly = true
	}

	type compact struct {
		ch            choice
		lat, en, errB float64
	}
	var feasible []compact
	slo := opts.SLOMs * 1e-3
	devBusy := make([]float64, D)

	consider := func(ch choice) {
		lat, en, errB := m.evalCompact(ch, devBusy)
		res.Evaluated++
		if lat*1e3 < res.MinLatencyMs {
			res.MinLatencyMs = lat * 1e3
		}
		if math.IsInf(lat, 1) || (slo > 0 && lat > slo) {
			return
		}
		res.Feasible++
		feasible = append(feasible, compact{ch: append(choice(nil), ch...), lat: lat, en: en, errB: errB})
	}

	ch := make(choice, nNodes)
	if res.UniformPrecisionOnly {
		// devices^nodes × precisions.
		for _, pi := range precChoices {
			var walk func(ni int)
			walk = func(ni int) {
				if ni == nNodes {
					consider(ch)
					return
				}
				for di := 0; di < D; di++ {
					ch[ni] = uint8(di*P + pi)
					walk(ni + 1)
				}
			}
			walk(0)
		}
	} else {
		// (devices × precisions)^nodes.
		var walk func(ni int)
		walk = func(ni int) {
			if ni == nNodes {
				consider(ch)
				return
			}
			for di := 0; di < D; di++ {
				for _, pi := range precChoices {
					ch[ni] = uint8(di*P + pi)
					walk(ni + 1)
				}
			}
		}
		walk(0)
	}

	// Pareto filter: sorted by latency, a candidate survives only if no
	// earlier survivor is at least as good on energy and error too.
	sort.Slice(feasible, func(i, j int) bool {
		a, b := feasible[i], feasible[j]
		if a.lat != b.lat {
			return a.lat < b.lat
		}
		if a.en != b.en {
			return a.en < b.en
		}
		return a.errB < b.errB
	})
	var frontier []compact
	for _, c := range feasible {
		dominated := false
		for _, f := range frontier {
			if f.en <= c.en && f.errB <= c.errB {
				dominated = true
				break
			}
		}
		if !dominated {
			frontier = append(frontier, c)
		}
	}
	if opts.Top > 0 && len(frontier) > opts.Top {
		frontier = frontier[:opts.Top]
	}
	for _, c := range frontier {
		cand := m.detail(c.ch)
		cand.Feasible = true
		res.Frontier = append(res.Frontier, cand)
	}

	// Single-device f32 baselines: the stage-imbalance table, and the
	// edge-inversion comparison across devices.
	f32pi, hasF32 := m.precIdx[precision.F32]
	if !hasF32 {
		f32pi = 0
	}
	for di := range m.devs {
		base := make(choice, nNodes)
		for ni := range base {
			base[ni] = uint8(di*P + f32pi)
		}
		cand := m.detail(base)
		cand.Feasible = slo <= 0 || cand.LatencyMs <= opts.SLOMs
		res.Baselines = append(res.Baselines, cand)
	}
	return res
}
