// Package mmbench is an end-to-end benchmark suite for multi-modal DNNs,
// reproducing "MMBench: Benchmarking End-to-End Multi-modal DNNs and
// Understanding Their Hardware-Software Implications" (IISWC 2023) as a
// pure-Go system.
//
// The suite bundles nine multi-modal workloads (Table 3 of the paper), the
// fusion operator catalogue (Table 1), a from-scratch tensor/autograd/NN
// substrate to execute them, an analytic device model for the paper's three
// evaluation platforms (RTX 2080 Ti server, Jetson Nano, Jetson Orin), and
// a profiling pipeline that attributes every modeled GPU kernel to its
// (stage, modality) scope.
//
// Three entry points cover the public API:
//
//   - Run profiles one workload variant on one device and returns the
//     system/architecture report (stage times, kernel breakdowns, stall
//     vectors, memory decomposition, CPU-vs-GPU share);
//   - Train fits a trainable workload variant on planted synthetic data
//     and reports the task metric (the paper's algorithm-level analysis);
//   - Experiment regenerates one of the paper's tables or figures.
package mmbench

import (
	"context"
	"fmt"
	"strings"

	"mmbench/internal/core"
	"mmbench/internal/data"
	"mmbench/internal/device"
	"mmbench/internal/faultinject"
	"mmbench/internal/fusion"
	"mmbench/internal/kernels"
	"mmbench/internal/metrics"
	"mmbench/internal/mmnet"
	"mmbench/internal/obs"
	"mmbench/internal/precision"
	"mmbench/internal/report"
	"mmbench/internal/train"
	"mmbench/internal/workloads"
)

// Workload describes one of the nine benchmark applications.
type Workload struct {
	Name       string
	Domain     string
	Task       string
	ModelSize  string
	Modalities []string
	Encoders   string
	// Variants lists every runnable variant: the workload's fusion
	// methods plus one "uni:<modality>" baseline per modality.
	Variants []string
}

// Workloads lists every benchmark application.
func Workloads() []Workload {
	var out []Workload
	for _, name := range workloads.Names() {
		info, err := workloads.Get(name)
		if err != nil {
			continue
		}
		variants, _ := workloads.Variants(name)
		out = append(out, Workload{
			Name:       info.Name,
			Domain:     info.Domain,
			Task:       info.Task.String(),
			ModelSize:  info.ModelSize,
			Modalities: append([]string{}, info.Modalities...),
			Encoders:   info.Encoders,
			Variants:   variants,
		})
	}
	return out
}

// FusionMethods lists the Table 1 fusion operator names.
func FusionMethods() []string { return fusion.Methods() }

// Devices lists the built-in hardware profiles.
func Devices() []string {
	var out []string
	for _, p := range device.Profiles() {
		out = append(out, p.Name)
	}
	return out
}

// RunConfig selects what to profile.
type RunConfig struct {
	// Workload and Variant name the network (see Workloads).
	Workload string
	Variant  string
	// Device is "2080ti", "nano" or "orin" (default "2080ti").
	Device string
	// BatchSize defaults to 32 (data.DefaultBatchSize).
	BatchSize int
	// PaperScale selects the paper-scale profile flavour (default) as
	// opposed to the small trainable flavour.
	PaperScale bool
	// Eager executes real numerics instead of the dataset-free analytic
	// abstraction.
	Eager bool
	// Seed drives eager-mode data generation.
	Seed int64
	// Precision is the per-stage storage-precision policy in flag
	// syntax, e.g. "f16" or "head=i8,fusion=f16" (see
	// internal/precision.ParsePolicy). Empty means all-float32, the
	// reference path.
	Precision string
}

// StageStat summarizes one execution stage.
type StageStat struct {
	Stage     string
	Seconds   float64
	DRAMUtil  float64
	Occupancy float64
	GldEff    float64
	GstEff    float64
	IPC       float64
}

// MemoryMB is the peak-memory decomposition in mebibytes.
type MemoryMB struct {
	Model        float64
	Dataset      float64
	Intermediate float64
}

// Report is the profiling result of one run.
type Report struct {
	Workload string
	Variant  string
	Device   string
	Batch    int

	// LatencySeconds is the modeled end-to-end latency of one batch,
	// including memory-capacity pressure.
	LatencySeconds  float64
	GPUSeconds      float64
	HostSeconds     float64
	TransferSeconds float64
	// CPUShare is the CPU+Runtime fraction of total busy time.
	CPUShare float64
	Kernels  int

	// Precision is the canonical form of the run's storage-precision
	// policy; empty for the all-float32 default. For eager runs under a
	// non-trivial policy, OutputErrMax/OutputErrMean report the largest
	// and mean absolute output-element error versus a float32 reference
	// forward over the same batch (analytic runs have no numerics, so
	// the fields stay zero).
	Precision     string  `json:",omitempty"`
	OutputErrMax  float64 `json:",omitempty"`
	OutputErrMean float64 `json:",omitempty"`

	Stages []StageStat
	// ModalitySeconds is encoder kernel time per modality.
	ModalitySeconds map[string]float64
	// KernelClassShares maps stage → kernel class name → share of time.
	KernelClassShares map[string]map[string]float64
	// StallShares maps stall reason name → share across all kernels.
	StallShares map[string]float64
	Memory      MemoryMB
}

// Run profiles one workload variant on one device.
func Run(cfg RunConfig) (*Report, error) {
	rep, _, err := runImpl(nil, cfg, nil, nil)
	return rep, err
}

// RunProfiledCtx is Run under a cancellable context, returning beside
// the report the measured per-stage latency in milliseconds. Analytic
// runs execute no kernels, so their stage map is nil. Cancellation (or a
// deadline) stops the eager engine's chunk dispatch within one chunk
// boundary, aborts the run at its next stage-boundary checkpoint, and
// returns ctx.Err(); a nil or background context behaves exactly like
// Run.
func RunProfiledCtx(ctx context.Context, cfg RunConfig) (*Report, map[string]float64, error) {
	return runProfiled(ctx, cfg, nil)
}

// runProfiled is RunProfiledCtx resolving an eager run's network through
// models. Analytic runs read no weight — plan compile and replay need
// shapes only — and keep building privately: the store's budget goes to
// models whose kernels actually run (docs/ARCHITECTURE.md, "Model
// store", says what a store for analytic cells has to wait for).
func runProfiled(ctx context.Context, cfg RunConfig, models *workloads.Store) (*Report, map[string]float64, error) {
	if !cfg.Eager {
		models = nil
	}
	return runImpl(ctx, cfg, nil, models)
}

// RunWithProfiler is Run recording into a caller-owned profiler, for
// callers that also want the span-level profile (the CLI's Chrome trace
// export). The caller seals the profiler with Finish after the run.
func RunWithProfiler(cfg RunConfig, p *obs.Profiler) (*Report, map[string]float64, error) {
	return runImpl(nil, cfg, p, nil)
}

// runImpl is the one execution path under every Run* entry point. The
// network comes from models — a CachedRunner's shared, frozen store — or,
// for the store-less package-level entry points (models == nil), from a
// private build that dies with the call.
func runImpl(ctx context.Context, cfg RunConfig, prof *obs.Profiler, models *workloads.Store) (*Report, map[string]float64, error) {
	// The runner.run injection site: a "panic" rule here simulates a
	// workload whose kernels reliably crash (the quarantine trigger).
	faultinject.Hit(faultinject.SiteRunner)
	cfg, n, opts, err := resolve(cfg, models)
	if err != nil {
		return nil, nil, err
	}
	opts.BatchSize, opts.Eager, opts.Seed = cfg.BatchSize, cfg.Eager, cfg.Seed
	opts.Profiler, opts.Ctx = prof, ctx
	res, err := core.Run(n, opts)
	if err != nil {
		return nil, nil, err
	}
	return buildReport(cfg, opts.Precision, res), stageMillis(res.StageSeconds), nil
}

// withDefaults resolves the defaults a RunConfig leaves open — variant
// (the workload's first fusion method), device and batch size — so the
// executions, the reports and the cache keys all read one definition.
// Only an unknown workload leaves the variant empty.
func (cfg RunConfig) withDefaults() RunConfig {
	if cfg.Device == "" {
		cfg.Device = "2080ti"
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = data.DefaultBatchSize
	}
	if cfg.Variant == "" {
		if info, err := workloads.Get(cfg.Workload); err == nil {
			cfg.Variant = info.Fusions[0]
		}
	}
	return cfg
}

// resolve is the front of every execution, standalone or merged: cfg
// with its defaults applied, its network (through models, see runImpl)
// and the run options its device and precision policy parse to.
func resolve(cfg RunConfig, models *workloads.Store) (_ RunConfig, n *mmnet.Network, opts core.RunOptions, err error) {
	if cfg.Workload == "" {
		return cfg, nil, opts, fmt.Errorf("mmbench: RunConfig.Workload is required")
	}
	cfg = cfg.withDefaults()
	if cfg.Variant == "" {
		_, err = workloads.Get(cfg.Workload)
		return cfg, nil, opts, err
	}
	if opts.Device, err = device.ByName(cfg.Device); err != nil {
		return cfg, nil, opts, err
	}
	if opts.Precision, err = precision.ParsePolicy(cfg.Precision); err != nil {
		return cfg, nil, opts, err
	}
	n, err = models.Get(cfg.Workload, cfg.Variant, cfg.PaperScale)
	return cfg, n, opts, err
}

// stageMillis converts the runner's per-stage seconds to the
// milliseconds the service and CLI report.
func stageMillis(sec map[string]float64) map[string]float64 {
	if sec == nil {
		return nil
	}
	ms := make(map[string]float64, len(sec))
	for stage, s := range sec {
		ms[stage] = s * 1e3
	}
	return ms
}

// buildReport renders a run of cfg (defaults resolved) as its Report.
func buildReport(cfg RunConfig, pol precision.Policy, res *core.RunResult) *Report {
	tr := res.Trace
	var polName string
	if !pol.AllF32() {
		// The canonical form only for non-trivial policies, so default
		// reports (and their JSON) are unchanged by precision support.
		polName = pol.String()
	}
	r := &Report{
		Workload:        cfg.Workload,
		Variant:         cfg.Variant,
		Device:          cfg.Device,
		Batch:           cfg.BatchSize,
		Precision:       polName,
		OutputErrMax:    res.OutputErrMax,
		OutputErrMean:   res.OutputErrMean,
		LatencySeconds:  res.Latency,
		GPUSeconds:      tr.GPUBusy(),
		HostSeconds:     tr.HostBusy,
		TransferSeconds: tr.TransferSeconds,
		CPUShare:        metrics.HostShare(tr),
		Kernels:         len(tr.Kernels),
		ModalitySeconds: metrics.ModalityTimes(tr),
		Memory: MemoryMB{
			Model:        float64(res.Memory.ModelBytes) / (1 << 20),
			Dataset:      float64(res.Memory.DatasetBytes) / (1 << 20),
			Intermediate: float64(res.Memory.IntermediateBytes) / (1 << 20),
		},
	}
	stages := metrics.StageResources(tr)
	for _, stage := range mmnet.Stages() {
		res := stages[stage]
		r.Stages = append(r.Stages, StageStat{
			Stage: stage, Seconds: res.Seconds,
			DRAMUtil: res.DRAMUtil, Occupancy: res.Occupancy,
			GldEff: res.GldEff, GstEff: res.GstEff, IPC: res.IPC,
		})
	}
	r.KernelClassShares = make(map[string]map[string]float64)
	for stage, classes := range metrics.ClassShares(tr) {
		if stage == "" {
			continue
		}
		m := make(map[string]float64, len(classes))
		for c, share := range classes {
			m[c.String()] = share
		}
		r.KernelClassShares[stage] = m
	}
	stalls := metrics.StallBreakdown(tr, nil)
	r.StallShares = make(map[string]float64, len(stalls))
	for i, s := range stalls {
		r.StallShares[device.StallReason(i).String()] = s
	}
	return r
}

// String renders a human-readable report summary.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s/%s on %s (batch %d)\n", r.Workload, r.Variant, r.Device, r.Batch)
	fmt.Fprintf(&b, "  latency %.3f ms | GPU %.3f ms | CPU+Runtime %.1f%% | %d kernels\n",
		r.LatencySeconds*1e3, r.GPUSeconds*1e3, r.CPUShare*100, r.Kernels)
	for _, s := range r.Stages {
		fmt.Fprintf(&b, "  %-8s %.3f ms  dram=%.2f occ=%.2f ipc=%.2f\n",
			s.Stage, s.Seconds*1e3, s.DRAMUtil, s.Occupancy, s.IPC)
	}
	fmt.Fprintf(&b, "  memory MB: model %.1f, dataset %.1f, intermediate %.1f\n",
		r.Memory.Model, r.Memory.Dataset, r.Memory.Intermediate)
	return b.String()
}

// TrainConfig selects and schedules a training run.
type TrainConfig struct {
	Workload string
	Variant  string
	// Epochs/StepsPerEpoch/BatchSize/LR default to the suite schedule.
	Epochs        int
	StepsPerEpoch int
	BatchSize     int
	LR            float64
	Seed          int64
	// Precision is the per-stage storage-precision policy in flag
	// syntax (empty = all-float32). Forward kernels run at the assigned
	// precision; gradients and optimizer state stay float32.
	Precision string
	// Profiler, when non-nil, records wall-clock spans for every
	// training step (kernels, backward, optimizer). Pure observer; the
	// caller seals it with Finish after Train returns.
	Profiler *obs.Profiler
}

// TrainResult reports a trained variant's evaluation.
type TrainResult struct {
	Workload   string
	Variant    string
	MetricName string
	Metric     float64
	FinalLoss  float64
}

// Train fits the trainable flavour of a workload variant on planted
// synthetic data and evaluates the task metric.
func Train(cfg TrainConfig) (*TrainResult, error) {
	if cfg.Workload == "" {
		return nil, fmt.Errorf("mmbench: TrainConfig.Workload is required")
	}
	info, err := workloads.Get(cfg.Workload)
	if err != nil {
		return nil, err
	}
	if cfg.Variant == "" {
		cfg.Variant = info.Fusions[0]
	}
	// Training mutates parameters, so it always builds a private network
	// and never sees a model store's shared, frozen one.
	n, err := workloads.Build(cfg.Workload, cfg.Variant, false, workloads.WeightSeed)
	if err != nil {
		return nil, err
	}
	tcfg := train.DefaultConfig()
	if cfg.Epochs > 0 {
		tcfg.Epochs = cfg.Epochs
	}
	if cfg.StepsPerEpoch > 0 {
		tcfg.StepsPerEpoch = cfg.StepsPerEpoch
	}
	if cfg.BatchSize > 0 {
		tcfg.BatchSize = cfg.BatchSize
	}
	if cfg.LR > 0 {
		tcfg.LR = float32(cfg.LR)
	}
	if cfg.Seed != 0 {
		tcfg.Seed = cfg.Seed
	}
	tcfg.Precision, err = precision.ParsePolicy(cfg.Precision)
	if err != nil {
		return nil, err
	}
	tcfg.Profiler = cfg.Profiler
	res := train.Fit(n, tcfg)
	return &TrainResult{
		Workload:   cfg.Workload,
		Variant:    cfg.Variant,
		MetricName: train.MetricName(info.Task),
		Metric:     res.Metric,
		FinalLoss:  res.FinalLoss,
	}, nil
}

// Table is one experiment result table.
type Table = report.Table

// ExperimentIDs lists the reproducible tables and figures of the paper.
func ExperimentIDs() []string { return core.ExperimentIDs() }

// Experiment regenerates one table or figure of the paper's evaluation.
// quick shrinks training runs and sweeps for smoke testing.
func Experiment(id string, quick bool) ([]*Table, error) {
	cfg := core.DefaultExpConfig()
	cfg.Quick = quick
	return core.RunExperiment(id, cfg)
}

// KernelClasses lists the kernel taxonomy used in reports (the paper's
// Figure 8 categories).
func KernelClasses() []string {
	out := make([]string, 0, kernels.NumClasses)
	for _, c := range kernels.Classes() {
		out = append(out, c.String())
	}
	return out
}
