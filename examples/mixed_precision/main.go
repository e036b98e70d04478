// Mixed precision: sweep AV-MNIST across per-stage precision policies
// and print the accuracy-vs-latency trade-off table.
//
// The walkthrough has two halves:
//
//  1. A *measured* half: train the small AV-MNIST flavour once in f32,
//     then evaluate the same trained weights under each policy — the
//     forward GEMM-family kernels run the emulated f16/i8 paths, so the
//     accuracy column shows what the reduced storage costs the task.
//  2. A *modeled* half: an eager precision sweep on the RTX 2080 Ti
//     profile, whose latency column comes from the analytic device
//     model's precision-scaled kernel costs and whose error column is
//     measured against the f32 reference forward.
//
// Run with: go run ./examples/mixed_precision
package main

import (
	"fmt"
	"log"
	"os"

	"mmbench"
	"mmbench/internal/precision"
	"mmbench/internal/report"
	"mmbench/internal/tensor"
	"mmbench/internal/train"
	"mmbench/internal/workloads"
)

// policies swept, from full precision to everything-int8.
var policies = []string{
	"f32",
	"f16",
	"head=i8,fusion=f16",
	"i8",
}

func main() {
	// 1. Train the small AV-MNIST variant once, in f32 (master weights).
	n, err := workloads.Build("avmnist", "concat", false, 42)
	if err != nil {
		log.Fatal(err)
	}
	cfg := train.DefaultConfig()
	fmt.Println("training avmnist/concat in f32 ...")
	train.Fit(n, cfg)

	// 2. Evaluate the trained network under each precision policy. Only
	// the forward storage precision changes; the weights are identical.
	acc := report.NewTable("avmnist/concat: accuracy vs storage precision",
		"Policy", "Accuracy", "Δ vs f32")
	var f32Acc float64
	for _, polStr := range policies {
		pol, err := precision.ParsePolicy(polStr)
		if err != nil {
			log.Fatal(err)
		}
		ecfg := cfg
		ecfg.Precision = pol
		res := train.EvaluateWith(n, ecfg, tensor.NewRNG(1234), 8, cfg.BatchSize)
		if polStr == "f32" {
			f32Acc = res.Metric
		}
		acc.AddRow(polStr, fmt.Sprintf("%.3f", res.Metric),
			fmt.Sprintf("%+.3f", res.Metric-f32Acc))
	}
	if err := acc.WriteText(os.Stdout); err != nil {
		log.Fatal(err)
	}

	// 3. The latency side: an eager sweep over the same policies on the
	// 2080 Ti profile. Latency is the analytic model's precision-scaled
	// cost; the error column is measured against the f32 reference.
	tbl, err := mmbench.RunSweep(mmbench.SweepConfig{
		Workload:   "avmnist",
		Variant:    "concat",
		Devices:    []string{"2080ti"},
		Batches:    []int{32},
		Precisions: policies,
		Eager:      true,
		Seed:       7,
	}, nil, nil)
	if err != nil {
		log.Fatal(err)
	}
	if err := tbl.WriteText(os.Stdout); err != nil {
		log.Fatal(err)
	}

	fmt.Println("The same sweep from the CLI:")
	fmt.Println("  mmbench sweep -workload avmnist -devices 2080ti -batches 32 -eager \\")
	fmt.Println("      -precision 'f32;f16;head=i8,fusion=f16;i8'")
}
