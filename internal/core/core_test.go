package core

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"mmbench/internal/device"
	"mmbench/internal/metrics"
	"mmbench/internal/report"
)

func TestRunBasic(t *testing.T) {
	res, err := BuildAndRun("avmnist", "concat", true, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency <= 0 {
		t.Error("non-positive latency")
	}
	if len(res.Trace.Kernels) == 0 {
		t.Error("no kernels recorded")
	}
	if res.Memory.ModelBytes <= 0 {
		t.Error("no model memory")
	}
	if !res.Output.Value.Abstract() {
		t.Error("analytic run produced concrete output")
	}
}

func TestRunEager(t *testing.T) {
	res, err := BuildAndRun("avmnist", "concat", false, RunOptions{Eager: true, BatchSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Output.Value.Abstract() {
		t.Error("eager run produced abstract output")
	}
	if res.Output.Value.MaxAbs() == 0 {
		t.Error("eager run produced all-zero logits")
	}
}

func TestRunIncludesEndToEndPipeline(t *testing.T) {
	res, err := BuildAndRun("avmnist", "concat", true, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var preprocess, gather, transfer bool
	for _, h := range res.Trace.Hosts {
		if strings.HasPrefix(h.Name, "load+preprocess:") {
			preprocess = true
		}
		if strings.HasPrefix(h.Name, "gather:") {
			gather = true
		}
	}
	transfer = len(res.Trace.Transfers) >= 3 // 2 modalities in + 1 output out
	if !preprocess || !gather || !transfer {
		t.Errorf("end-to-end pipeline incomplete: preprocess=%v gather=%v transfer=%v",
			preprocess, gather, transfer)
	}
}

func TestRunUnknownWorkload(t *testing.T) {
	if _, err := BuildAndRun("nope", "concat", true, RunOptions{}); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestStageImbalance(t *testing.T) {
	// Figure 6's headline: encoders dominate on encoder-heavy workloads.
	res, err := BuildAndRun("mmimdb", "concat", true, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	st := metrics.StageTimes(res.Trace)
	if st["encoder"] < 10*st["fusion"] {
		t.Errorf("mmimdb encoder %e not ≫ fusion %e", st["encoder"], st["fusion"])
	}
}

func TestHeavyFusionExceedsEncoder(t *testing.T) {
	// Figure 6's counterpoint: transformer fusion on MuJoCo Push takes
	// longer than the encoder stage.
	res, err := BuildAndRun("push", "transformer", true, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	st := metrics.StageTimes(res.Trace)
	if st["fusion"] <= st["encoder"] {
		t.Errorf("push fusion %e not above encoder %e", st["fusion"], st["encoder"])
	}
}

func TestEdgeSlowerThanServer(t *testing.T) {
	nano, err := BuildAndRun("avmnist", "concat", true, RunOptions{Device: device.JetsonNano()})
	if err != nil {
		t.Fatal(err)
	}
	server, err := BuildAndRun("avmnist", "concat", true, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if nano.Latency < 2*server.Latency {
		t.Errorf("nano latency %e not well above server %e", nano.Latency, server.Latency)
	}
}

func TestNanoCapacityInversion(t *testing.T) {
	// Figure 14: per-task latency on the Nano stops improving at batch
	// 320 because the allocator pool is exhausted.
	lat := func(batch int) float64 {
		r, err := BuildAndRun("avmnist", "concat", true, RunOptions{Device: device.JetsonNano(), BatchSize: batch})
		if err != nil {
			t.Fatal(err)
		}
		return r.Latency / float64(batch)
	}
	l160, l320 := lat(160), lat(320)
	if l320 <= l160 {
		t.Errorf("nano per-task latency at b320 (%e) should exceed b160 (%e)", l320, l160)
	}
}

// reportDigests are the sha256 digests of the analytic experiments' text
// renderings — `mmbench repro <id> | sha256sum` (Quick changes only the
// trained figures). A change that moves one changed a report; regenerate
// the digest only when that is the change's intent.
var reportDigests = map[string]string{
	"table1": "4cf819628b137c78e43787d1f6f00fbfa909cabb86928107903b94e2db572a14",
	"table3": "c2db3cdd0604d7e7f3f292a88647aa29f3fdbb74b7453c495671a712acfdaf41",
	"fig6":   "38f4b8f2ce7094224e64e168f194d4c3563e59461b479fa4b7fef5e5f1f16657",
	"fig7":   "8ce0de11fdd72252cbfbe5ba4a8f1d7b663cc47117aa88810d9d31abccc6d623",
	"fig8":   "6063f120b690f23fec6ec29d13611a5902881a49127f4e340997376a78c69fe3",
	"fig9":   "6b70660969aedc1062b5f909160cf02d5938737d4695b50d13787cfa77c9b287",
	"fig10":  "77adab23e5d2e9eb22544011c6831c7da1cc9df52098714167da409f490b4b31",
	"fig11":  "7d3cac91649d732e5f5b97b8bd1ee195c73ff277ad45f56f8774341f6173c5e2",
	"fig12":  "26c66fe25e74ba00757e55291f8a07796df39c90a45c3db7d19225cdbf09e276",
	"fig13":  "ffc88a48145532663c0463b54d3b67ddb8cf187225912e7f8192f6be7745df41",
	"fig14":  "15e6007dcad36b6ca230b45ed406496f9304169d80e88367820a8e2b0ecb23aa",
	"fig15":  "01bf1ae9ecb1d71091fb221500b6164fbfbe65347f0afdc50333463d554337a8",
}

func TestExperimentIDsAllRunnable(t *testing.T) {
	// Every analytic experiment must run (training ones covered by the
	// quick smoke below) and render byte-identically to its pinned digest.
	// The digests are amd64's: elsewhere the compiler may fuse a
	// multiply-add and move a last bit of a modeled number.
	pinned := runtime.GOARCH == "amd64"
	figures := make(map[string][]*report.Table)
	for _, id := range []string{"table1", "table3", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15"} {
		tables, err := RunExperiment(id, ExpConfig{Quick: true})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tables) == 0 {
			t.Fatalf("%s produced no tables", id)
		}
		figures[id] = tables
		for _, tab := range tables {
			if len(tab.Rows) == 0 {
				t.Errorf("%s: table %q has no rows", id, tab.Title)
			}
		}
		if !pinned {
			continue
		}
		var buf bytes.Buffer
		if err := report.Render(&buf, "text", tables...); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != reportDigests[id] {
			t.Errorf("%s renders to sha256 %s, pinned %s", id, got, reportDigests[id])
		}
	}
	// The paper's analytic claims hold on the same tables.
	for _, cl := range claims {
		if cl.trained() {
			continue
		}
		t.Run(cl.figure, func(t *testing.T) {
			if reading, ok := cl.eval(figures[cl.figure], nil); !ok {
				t.Errorf("%s: %s\n(paper: %s)", cl.figure, reading, cl.paper)
			}
		})
	}
}

func TestUnknownExperiment(t *testing.T) {
	if _, err := RunExperiment("fig99", ExpConfig{}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestFig4QuickRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("training experiment")
	}
	tables, err := RunExperiment("fig4", ExpConfig{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables[0].Rows) < 4 {
		t.Fatalf("fig4 quick produced %d rows", len(tables[0].Rows))
	}
}

func TestFig5QuickRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("training experiment")
	}
	tables, err := RunExperiment("fig5", ExpConfig{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables[0].Rows) != 1 {
		t.Fatalf("fig5 quick produced %d rows", len(tables[0].Rows))
	}
}
