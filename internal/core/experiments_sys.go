package core

import (
	"fmt"
	"math"

	"mmbench/internal/device"
	"mmbench/internal/kernels"
	"mmbench/internal/memprof"
	"mmbench/internal/metrics"
	"mmbench/internal/report"
	"mmbench/internal/trace"
	"mmbench/internal/workloads"
)

// defaultFusion returns the first registered fusion of a workload.
func defaultFusion(workload string) (string, error) {
	info, err := workloads.Get(workload)
	if err != nil {
		return "", err
	}
	return info.Fusions[0], nil
}

// defaultRuns profiles every workload's default fusion at batch 32 on
// the server, the grid behind Figs 6–8: rs[i] is workloads.Names()[i].
func defaultRuns() ([]*RunResult, error) {
	var grid []profileCfg
	for _, name := range workloads.Names() {
		fus, err := defaultFusion(name)
		if err != nil {
			return nil, err
		}
		grid = append(grid, profileCfg{name, fus, device.RTX2080Ti(), 32})
	}
	return profileGrid(grid)
}

// Fig6 reproduces per-stage execution time: encoders dominate except under
// complex (transformer) fusion.
func Fig6() ([]*report.Table, error) {
	rs, err := defaultRuns()
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Figure 6: execution time of the three stages (batch 32, 2080ti, ms)",
		"Workload", "Encoder", "Fusion", "Head", "Enc/Total")
	for i, name := range workloads.Names() {
		st := metrics.StageTimes(rs[i].Trace)
		total := st["encoder"] + st["fusion"] + st["head"]
		t.AddRow(name, report.Ms(st["encoder"]), report.Ms(st["fusion"]), report.Ms(st["head"]),
			report.Pct(st["encoder"]/math.Max(total, 1e-12)))
	}
	return []*report.Table{t}, nil
}

// Fig7 reproduces per-stage resource usage (DRAM utilization, achieved
// occupancy, load/store efficiency, IPC).
func Fig7() ([]*report.Table, error) {
	rs, err := defaultRuns()
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Figure 7: resource usage of the three stages (batch 32, 2080ti)",
		"Workload", "Stage", "DRAM_UTI", "GPU_OCU", "GLD_EFF", "GST_EFF", "IPC")
	for i, name := range workloads.Names() {
		res := metrics.StageResources(rs[i].Trace)
		for _, stage := range sortedStages(res) {
			r := res[stage]
			t.AddRow(name, stage, report.F(r.DRAMUtil), report.F(r.Occupancy),
				report.F(r.GldEff), report.F(r.GstEff), report.F(r.IPC))
		}
	}
	return []*report.Table{t}, nil
}

// Fig8 reproduces the kernel-class breakdown per stage.
func Fig8() ([]*report.Table, error) {
	rs, err := defaultRuns()
	if err != nil {
		return nil, err
	}
	cols := []string{"Workload", "Stage"}
	for _, c := range kernels.Classes() {
		cols = append(cols, c.String())
	}
	t := report.NewTable("Figure 8: kernel class breakdown per stage (share of kernel time)", cols...)
	for i, name := range workloads.Names() {
		shares := metrics.ClassShares(rs[i].Trace)
		for _, stage := range sortedStages(shares) {
			row := []string{name, stage}
			for _, c := range kernels.Classes() {
				row = append(row, report.Pct(shares[stage][c]))
			}
			t.AddRow(row...)
		}
	}
	return []*report.Table{t}, nil
}

// Fig9 reproduces the hotspot-kernel comparison on AV-MNIST: the Reduce
// kernel across stages (attention variant, whose encoder GAP and fusion
// pooling both lower to Reduce kernels), and the Elewise kernel across
// fusion methods.
func Fig9() ([]*report.Table, error) {
	rs, err := profileGrid([]profileCfg{
		{"avmnist", "attention", device.RTX2080Ti(), 32},
		{"avmnist", "concat", device.RTX2080Ti(), 32},
		{"avmnist", "tensor", device.RTX2080Ti(), 32},
	})
	if err != nil {
		return nil, err
	}
	attn, concat, tensorRun := rs[0], rs[1], rs[2]

	a := report.NewTable("Figure 9a: Reduce hotspot kernel across stages (AV-MNIST attention, normalized to fusion)",
		"Metric", "encoder", "fusion", "head")
	stages := []string{"encoder", "fusion", "head"}
	hs := make(map[string]metrics.Hotspot, 3)
	for _, s := range stages {
		hs[s] = metrics.HotspotQuery(attn.Trace, kernels.Reduce, s)
	}
	base := hs["fusion"]
	norm := func(v, b float64) string {
		if v == 0 {
			return "n/a" // stage has no Reduce kernel
		}
		if b == 0 {
			return report.F(v)
		}
		return report.F(v / b)
	}
	a.AddRow("fp32 FLOPs", norm(float64(hs["encoder"].FLOPs), float64(base.FLOPs)),
		norm(float64(hs["fusion"].FLOPs), float64(base.FLOPs)),
		norm(float64(hs["head"].FLOPs), float64(base.FLOPs)))
	a.AddRow("read transactions", norm(float64(hs["encoder"].ReadTransactions), float64(base.ReadTransactions)),
		norm(float64(hs["fusion"].ReadTransactions), float64(base.ReadTransactions)),
		norm(float64(hs["head"].ReadTransactions), float64(base.ReadTransactions)))
	a.AddRow("L1 hit rate", report.F(hs["encoder"].L1Hit), report.F(hs["fusion"].L1Hit), report.F(hs["head"].L1Hit))
	a.AddRow("L2 hit rate", report.F(hs["encoder"].L2Hit), report.F(hs["fusion"].L2Hit), report.F(hs["head"].L2Hit))
	a.Note = "The head of our implementation launches no Reduce kernel in inference (reported n/a)."

	b := report.NewTable("Figure 9b: Elewise hotspot kernel across fusion methods (AV-MNIST fusion stage)",
		"Metric", "concat", "tensor")
	ec := metrics.HotspotQuery(concat.Trace, kernels.Elewise, "fusion")
	et := metrics.HotspotQuery(tensorRun.Trace, kernels.Elewise, "fusion")
	b.AddRow("kernel count", fmt.Sprint(ec.Count), fmt.Sprint(et.Count))
	b.AddRow("DRAM read bytes", fmt.Sprint(ec.DRAMReadBytes), fmt.Sprint(et.DRAMReadBytes))
	b.AddRow("L2 hit rate", report.F(ec.L2Hit), report.F(et.L2Hit))
	b.AddRow("time (ms)", report.Ms(ec.Seconds), report.Ms(et.Seconds))
	return []*report.Table{a, b}, nil
}

// Fig10 reproduces the per-modality encoder-time imbalance.
func Fig10() ([]*report.Table, error) {
	t := report.NewTable("Figure 10: per-modality encoder time (batch 32, 2080ti, normalized to fastest)",
		"Workload", "Modality", "Time (ms)", "Normalized")
	var grid []profileCfg
	for _, name := range []string{"avmnist", "mmimdb", "push"} {
		fus, err := defaultFusion(name)
		if err != nil {
			return nil, err
		}
		grid = append(grid, profileCfg{name, fus, device.RTX2080Ti(), 32})
	}
	rs, err := profileGrid(grid)
	if err != nil {
		return nil, err
	}
	for i, c := range grid {
		mt := metrics.ModalityTimes(rs[i].Trace)
		minT := math.Inf(1)
		for _, v := range mt {
			if v < minT {
				minT = v
			}
		}
		info, _ := workloads.Get(c.workload)
		for _, m := range info.Modalities {
			t.AddRow(c.workload, m, report.Ms(mt[m]), report.F(mt[m]/minT))
		}
	}
	return []*report.Table{t}, nil
}

// Fig11 reproduces the CPU+Runtime vs GPU proportion comparison between
// uni-modal and multi-modal implementations.
func Fig11() ([]*report.Table, error) {
	t := report.NewTable("Figure 11: CPU+Runtime vs GPU share (batch 32, 2080ti)",
		"Workload", "Variant", "CPU+Runtime", "GPU")
	// grid holds (uni, multi) pairs per workload, in row order.
	var grid []profileCfg
	for _, name := range []string{"avmnist", "push", "medseg", "vnt"} {
		info, err := workloads.Get(name)
		if err != nil {
			return nil, err
		}
		grid = append(grid,
			profileCfg{name, "uni:" + info.Major, device.RTX2080Ti(), 32},
			profileCfg{name, info.Fusions[0], device.RTX2080Ti(), 32})
	}
	rs, err := profileGrid(grid)
	if err != nil {
		return nil, err
	}
	for i := 0; i < len(grid); i += 2 {
		us := metrics.HostShare(rs[i].Trace)
		ms := metrics.HostShare(rs[i+1].Trace)
		t.AddRow(grid[i].workload, "uni", report.Pct(us), report.Pct(1-us))
		t.AddRow(grid[i].workload, "multi", report.Pct(ms), report.Pct(1-ms))
	}
	t.Note = "Multi-modal variants spend a larger share in CPU+Runtime (modality gathers, extra dispatches)."
	return []*report.Table{t}, nil
}

// Fig12 reproduces the batch-size case study on AV-MNIST: 10000 inference
// tasks scheduled at batch 40 vs 400.
func Fig12() ([]*report.Table, error) {
	const tasks = 10000
	kinds := []struct{ label, variant string }{
		{"slfs", "concat"}, // the paper's multi-modal implementation
		{"image", "uni:image"},
	}
	hist := report.NewTable("Figure 12a: kernel size distribution (share of kernels per duration bucket)",
		"Variant", "Batch", "0-10us", "10-50us", "50-100us", ">100us")
	times := report.NewTable("Figure 12b: GPU time and inference time for 10000 tasks",
		"Variant", "Batch", "GPU time (s)", "Inference time (s)")
	var labels []string
	var grid []profileCfg
	for _, k := range kinds {
		for _, b := range []int{40, 400} {
			labels = append(labels, k.label)
			grid = append(grid, profileCfg{"avmnist", k.variant, device.RTX2080Ti(), b})
		}
	}
	rs, err := profileGrid(grid)
	if err != nil {
		return nil, err
	}
	for i, c := range grid {
		r := rs[i]
		h := metrics.KernelSizeHistogram(r.Trace)
		hist.AddRow(labels[i], fmt.Sprint(c.batch), report.Pct(h[0]), report.Pct(h[1]), report.Pct(h[2]), report.Pct(h[3]))
		nBatches := float64((tasks + c.batch - 1) / c.batch)
		times.AddRow(labels[i], fmt.Sprint(c.batch),
			report.F(r.Trace.GPUBusy()*nBatches), report.F(r.Latency*nBatches))
	}
	return []*report.Table{hist, times}, nil
}

// Fig13 reproduces peak memory by category vs batch size.
func Fig13() ([]*report.Table, error) {
	t := report.NewTable("Figure 13: peak memory (MB) for model, dataset and intermediates (AV-MNIST, 2080ti)",
		"Variant", "Batch", "Model", "Dataset", "Intermediate", "Intermediate share")
	var labels []string
	var grid []profileCfg
	for _, k := range []struct{ label, variant string }{{"uni", "uni:image"}, {"multi", "concat"}} {
		for _, b := range []int{20, 40, 100, 200, 400} {
			labels = append(labels, k.label)
			grid = append(grid, profileCfg{"avmnist", k.variant, device.RTX2080Ti(), b})
		}
	}
	rs, err := profileGrid(grid)
	if err != nil {
		return nil, err
	}
	for i, c := range grid {
		m := rs[i].Memory
		t.AddRow(labels[i], fmt.Sprint(c.batch),
			report.F(memprof.MB(m.ModelBytes)), report.F(memprof.MB(m.DatasetBytes)),
			report.F(memprof.MB(m.IntermediateBytes)),
			report.Pct(float64(m.IntermediateBytes)/float64(m.Total())))
	}
	return []*report.Table{t}, nil
}

// Fig14 reproduces the edge-migration inference-time sweep: AV-MNIST on
// Jetson Nano, Jetson Orin and the GPU server across batch sizes, for
// 10000 total tasks.
func Fig14() ([]*report.Table, error) {
	const tasks = 10000
	t := report.NewTable("Figure 14: inference time for 10000 AV-MNIST tasks vs batch size",
		"Device", "Batch", "uni (s)", "slfs (s)", "ratio slfs/uni")
	// grid holds (uni, multi) pairs per (device, batch), in row order.
	var grid []profileCfg
	for _, devName := range []string{"nano", "orin", "2080ti"} {
		dev, err := device.ByName(devName)
		if err != nil {
			return nil, err
		}
		for _, b := range []int{40, 80, 160, 320} {
			grid = append(grid,
				profileCfg{"avmnist", "uni:image", dev, b},
				profileCfg{"avmnist", "concat", dev, b})
		}
	}
	rs, err := profileGrid(grid)
	if err != nil {
		return nil, err
	}
	for i := 0; i < len(grid); i += 2 {
		nBatches := float64((tasks + grid[i].batch - 1) / grid[i].batch)
		ut := rs[i].Latency * nBatches
		mt := rs[i+1].Latency * nBatches
		t.AddRow(grid[i].dev.Name, fmt.Sprint(grid[i].batch), report.F(ut), report.F(mt), report.F(mt/ut))
	}
	t.Note = "Nano latency stops improving (and worsens) at large batch as memory capacity is exhausted."
	return []*report.Table{t}, nil
}

// Fig15 reproduces the stall breakdowns and edge resource usage.
func Fig15() ([]*report.Table, error) {
	variants := []struct{ label, variant string }{
		{"uni0 (audio)", "uni:audio"},
		{"uni1 (image)", "uni:image"},
		{"slfs (multi)", "concat"}, // last: the stage rows and 15c read it
	}
	// grid holds the variants per device, nano first.
	var devs []*device.Profile
	var grid []profileCfg
	for _, devName := range []string{"nano", "2080ti"} {
		dev, err := device.ByName(devName)
		if err != nil {
			return nil, err
		}
		devs = append(devs, dev)
		for _, v := range variants {
			grid = append(grid, profileCfg{"avmnist", v.variant, dev, 32})
		}
	}
	rs, err := profileGrid(grid)
	if err != nil {
		return nil, err
	}
	var tables []*report.Table
	for d, dev := range devs {
		cols := []string{"Row"}
		for i := 0; i < device.NumStalls; i++ {
			cols = append(cols, device.StallReason(i).String())
		}
		t := report.NewTable(fmt.Sprintf("Figure 15: stall breakdown on %s (AV-MNIST, batch 32)", dev.Name), cols...)
		runs := rs[d*len(variants) : (d+1)*len(variants)]
		for i, v := range variants {
			addStallRow(t, v.label, metrics.StallBreakdown(runs[i].Trace, nil))
		}
		multiTrace := runs[len(variants)-1].Trace
		for _, stage := range []string{"encoder", "fusion", "head"} {
			st := stage
			addStallRow(t, st, metrics.StallBreakdown(multiTrace, func(k trace.KernelEvent) bool { return k.Stage == st }))
		}
		tables = append(tables, t)
	}

	// 15c: computation and memory usage per stage on the Nano, from the
	// grid's nano/concat cell.
	c := report.NewTable("Figure 15c: computation and memory usage on Jetson Nano (AV-MNIST)",
		"Stage", "DRAM_UTI", "GPU_OCU", "GLD_EFF", "GST_EFF", "IPC")
	res := metrics.StageResources(rs[len(variants)-1].Trace)
	for _, stage := range sortedStages(res) {
		u := res[stage]
		c.AddRow(stage, report.F(u.DRAMUtil), report.F(u.Occupancy), report.F(u.GldEff), report.F(u.GstEff), report.F(u.IPC))
	}
	tables = append(tables, c)
	return tables, nil
}

func addStallRow(t *report.Table, label string, stalls [device.NumStalls]float64) {
	row := []string{label}
	for _, s := range stalls {
		row = append(row, report.Pct(s))
	}
	t.AddRow(row...)
}
