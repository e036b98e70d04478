package mmbench

// The benchmark harness regenerates every table and figure of the paper's
// evaluation section (run with `go test -bench=. -benchmem`). Each
// benchmark drives the corresponding experiment and reports its headline
// quantity via b.ReportMetric, so a bench run doubles as a reproduction
// log. Figures 4 and 5 train networks and therefore run their quick
// configurations here; `mmbench repro fig4 fig5` runs the full versions.

import (
	"strconv"
	"testing"

	"mmbench/internal/autograd"
	"mmbench/internal/core"
	"mmbench/internal/device"
	"mmbench/internal/fusion"
	"mmbench/internal/metrics"
	"mmbench/internal/ops"
	"mmbench/internal/tensor"
	"mmbench/internal/train"
	"mmbench/internal/workloads"
)

// BenchmarkTable1Fusion measures every Table 1 fusion operator federating
// two 128-dim modality features at batch 32 (eager math).
func BenchmarkTable1Fusion(b *testing.B) {
	g := tensor.NewRNG(1)
	feats := make([]*ops.Var, 2)
	for i := range feats {
		t := tensor.New(32, 128)
		g.Uniform(t, -1, 1)
		feats[i] = autograd.NewVar(t)
	}
	for _, method := range fusion.Methods() {
		b.Run(method, func(b *testing.B) {
			f, err := fusion.New(method, tensor.NewRNG(2), []int{128, 128}, 64)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.Fuse(ops.Infer(), feats)
			}
		})
	}
}

// BenchmarkTable3Workloads measures constructing each paper-scale workload
// (encoder + fusion + head instantiation).
func BenchmarkTable3Workloads(b *testing.B) {
	for _, name := range workloads.Names() {
		info, err := workloads.Get(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := workloads.Build(name, info.Fusions[0], true, 42); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig4Performance trains the AV-MNIST uni/multi variants (quick
// schedule) and reports the multi-modal accuracy advantage.
func BenchmarkFig4Performance(b *testing.B) {
	cfg := train.Config{Epochs: 2, StepsPerEpoch: 10, BatchSize: 16, LR: 1e-3, Seed: 1}
	for i := 0; i < b.N; i++ {
		multi, err := workloads.Build("avmnist", "concat", false, 42)
		if err != nil {
			b.Fatal(err)
		}
		uni, err := workloads.Build("avmnist", "uni:image", false, 42)
		if err != nil {
			b.Fatal(err)
		}
		mres := train.Fit(multi, cfg)
		ures := train.Fit(uni, cfg)
		b.ReportMetric(mres.Metric, "acc-multi")
		b.ReportMetric(ures.Metric, "acc-uni")
	}
}

// BenchmarkFig5Modality runs the quick mutually-exclusive-solvability
// analysis and reports the major-modality share.
func BenchmarkFig5Modality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables, err := core.RunExperiment("fig5", core.ExpConfig{Quick: true})
		if err != nil {
			b.Fatal(err)
		}
		_ = tables
	}
}

// benchFigure runs one analytic experiment driver per iteration.
func benchFigure(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tables, err := core.RunExperiment(id, core.ExpConfig{Quick: true})
		if err != nil {
			b.Fatal(err)
		}
		if len(tables) == 0 {
			b.Fatal("no tables")
		}
	}
}

// BenchmarkFig6StageTime regenerates the per-stage execution time figure
// and reports the encoder share of AV-MNIST GPU time.
func BenchmarkFig6StageTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := core.BuildAndRun("avmnist", "concat", true, core.RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
		st := metrics.StageTimes(res.Trace)
		total := st["encoder"] + st["fusion"] + st["head"]
		b.ReportMetric(st["encoder"]/total, "enc-share")
	}
}

// BenchmarkFig7Resource regenerates the per-stage resource usage figure.
func BenchmarkFig7Resource(b *testing.B) { benchFigure(b, "fig7") }

// BenchmarkFig8Kernels regenerates the kernel class breakdown figure.
func BenchmarkFig8Kernels(b *testing.B) { benchFigure(b, "fig8") }

// BenchmarkFig9Hotspot regenerates the hotspot-kernel comparison.
func BenchmarkFig9Hotspot(b *testing.B) { benchFigure(b, "fig9") }

// BenchmarkFig10Modality regenerates the per-modality encoder time figure
// and reports the MuJoCo Push straggler ratio.
func BenchmarkFig10Modality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := core.BuildAndRun("push", "transformer", true, core.RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
		mt := metrics.ModalityTimes(res.Trace)
		minT, maxT := mt["position"], mt["position"]
		for _, v := range mt {
			if v < minT {
				minT = v
			}
			if v > maxT {
				maxT = v
			}
		}
		b.ReportMetric(maxT/minT, "straggler-x")
	}
}

// BenchmarkFig11Sync regenerates the CPU-vs-GPU share comparison and
// reports the multi-minus-uni CPU share gap on Vision & Touch.
func BenchmarkFig11Sync(b *testing.B) {
	for i := 0; i < b.N; i++ {
		uni, err := core.BuildAndRun("vnt", "uni:image", true, core.RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
		multi, err := core.BuildAndRun("vnt", "transformer", true, core.RunOptions{})
		if err != nil {
			b.Fatal(err)
		}
		gap := metrics.HostShare(multi.Trace) - metrics.HostShare(uni.Trace)
		b.ReportMetric(gap, "cpu-share-gap")
	}
}

// BenchmarkFig12Batch regenerates the batch-size case study and reports
// the large-batch speedup of the multi-modal implementation.
func BenchmarkFig12Batch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		small, err := core.BuildAndRun("avmnist", "concat", true, core.RunOptions{BatchSize: 40})
		if err != nil {
			b.Fatal(err)
		}
		large, err := core.BuildAndRun("avmnist", "concat", true, core.RunOptions{BatchSize: 400})
		if err != nil {
			b.Fatal(err)
		}
		perTaskSmall := small.Latency / 40
		perTaskLarge := large.Latency / 400
		b.ReportMetric(perTaskSmall/perTaskLarge, "batch-speedup")
	}
}

// BenchmarkFig13Memory regenerates the peak-memory decomposition and
// reports the intermediate-data share at batch 400.
func BenchmarkFig13Memory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := core.BuildAndRun("avmnist", "concat", true, core.RunOptions{BatchSize: 400})
		if err != nil {
			b.Fatal(err)
		}
		share := float64(res.Memory.IntermediateBytes) / float64(res.Memory.Total())
		b.ReportMetric(share, "intermediate-share")
	}
}

// BenchmarkFig14Edge regenerates the edge-migration sweep and reports the
// nano/server latency ratio at batch 40.
func BenchmarkFig14Edge(b *testing.B) {
	for _, devName := range []string{"2080ti", "orin", "nano"} {
		b.Run(devName, func(b *testing.B) {
			dev, err := device.ByName(devName)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				res, err := core.BuildAndRun("avmnist", "concat", true, core.RunOptions{Device: dev, BatchSize: 40})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Latency*1e3, "latency-ms")
			}
		})
	}
}

// BenchmarkFig15Stalls regenerates the stall-breakdown comparison and
// reports the Exec+Inst stall share on the Nano.
func BenchmarkFig15Stalls(b *testing.B) {
	dev := device.JetsonNano()
	for i := 0; i < b.N; i++ {
		res, err := core.BuildAndRun("avmnist", "concat", true, core.RunOptions{Device: dev})
		if err != nil {
			b.Fatal(err)
		}
		stalls := metrics.StallBreakdown(res.Trace, nil)
		b.ReportMetric(stalls[device.StallExec]+stalls[device.StallInst], "exec-inst-share")
	}
}

// BenchmarkEagerInference measures real-numerics inference throughput of
// the trainable AV-MNIST network across batch sizes (substrate ablation:
// eager cost vs the analytic abstraction).
func BenchmarkEagerInference(b *testing.B) {
	for _, batch := range []int{1, 8, 32} {
		b.Run("batch"+strconv.Itoa(batch), func(b *testing.B) {
			n, err := workloads.Build("avmnist", "concat", false, 42)
			if err != nil {
				b.Fatal(err)
			}
			batchData := n.Gen.Batch(tensor.NewRNG(1), batch)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n.Forward(ops.Infer(), batchData)
			}
		})
	}
}

// BenchmarkAnalyticInference measures the dataset-free analytic profile of
// the paper-scale TransFuser — the heaviest network in the suite.
func BenchmarkAnalyticInference(b *testing.B) {
	n, err := workloads.Build("transfuser", "transformer", true, 42)
	if err != nil {
		b.Fatal(err)
	}
	batch := n.Gen.AbstractBatch(32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Forward(ops.Infer(), batch)
	}
}

// BenchmarkTrainingStep measures one eager forward+backward+update step of
// the trainable AV-MNIST network (convolutions), and LSTM the same step of
// MUStARD's two LSTM encoders under concat fusion.
func BenchmarkTrainingStep(b *testing.B) { benchTrainingStep(b, "avmnist") }

func BenchmarkTrainingStepLSTM(b *testing.B) { benchTrainingStep(b, "mustard") }

func benchTrainingStep(b *testing.B, workload string) {
	n, err := workloads.Build(workload, "concat", false, 42)
	if err != nil {
		b.Fatal(err)
	}
	opt := train.NewAdam(1e-3)
	rng := tensor.NewRNG(1)
	batch := n.Gen.Batch(rng, 16)
	params := n.Params()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tape := autograd.NewTape()
		c := &ops.Ctx{Tape: tape}
		out := n.Forward(c, batch)
		loss := n.Loss(c, out, batch)
		tape.Backward(loss)
		opt.Step(params)
	}
}
