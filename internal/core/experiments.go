package core

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"mmbench/internal/data"
	"mmbench/internal/mmnet"
	"mmbench/internal/ops"
	"mmbench/internal/report"
	"mmbench/internal/tensor"
	"mmbench/internal/train"
	"mmbench/internal/workloads"
)

// ExpConfig configures the experiment drivers.
type ExpConfig struct {
	// Train controls the training runs behind Figures 4 and 5.
	Train train.Config
	// Quick shrinks training and sweep sizes for smoke tests.
	Quick bool
	// Seeds is how many seeds Figures 4 and 5 train every variant at (0
	// or 1: one). The k-th, counted from 0, builds every network at 42+k
	// and trains it at Train.Seed+k, so the first is the one-seed run.
	// Titles and claims count seeds from 1.
	Seeds int
}

// DefaultExpConfig returns the configuration used by the reproduction
// harness.
func DefaultExpConfig() ExpConfig {
	return ExpConfig{Train: train.DefaultConfig()}
}

func (c *ExpConfig) trainConfig() train.Config {
	cfg := c.Train
	if cfg.Epochs == 0 {
		cfg = train.DefaultConfig()
	}
	if c.Quick {
		cfg.Epochs, cfg.StepsPerEpoch, cfg.BatchSize = 2, 10, 16
	}
	return cfg
}

// tuneConfig adapts the base training schedule to the task: multi-label
// BCE and segmentation losses have weaker per-step gradients and need more
// of them.
func tuneConfig(task data.Task, base train.Config) train.Config {
	cfg := base
	switch task {
	case data.MultiLabel:
		cfg.Epochs = max(cfg.Epochs, 2*base.Epochs)
		cfg.LR = 3 * base.LR
	case data.Segment:
		cfg.Epochs = max(cfg.Epochs, base.Epochs+3)
	}
	return cfg
}

// ExperimentIDs lists every reproducible table and figure.
func ExperimentIDs() []string {
	return []string{
		"table1", "table3",
		"fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
		"fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
	}
}

// RunExperiment regenerates one table or figure of the paper.
func RunExperiment(id string, cfg ExpConfig) ([]*report.Table, error) {
	switch id {
	case "table1":
		return Table1(), nil
	case "table3":
		return Table3(), nil
	case "fig4":
		return Fig4(cfg)
	case "fig5":
		return Fig5(cfg)
	case "fig6":
		return Fig6()
	case "fig7":
		return Fig7()
	case "fig8":
		return Fig8()
	case "fig9":
		return Fig9()
	case "fig10":
		return Fig10()
	case "fig11":
		return Fig11()
	case "fig12":
		return Fig12()
	case "fig13":
		return Fig13()
	case "fig14":
		return Fig14()
	case "fig15":
		return Fig15()
	}
	return nil, fmt.Errorf("core: unknown experiment %q (want one of %v)", id, ExperimentIDs())
}

// Table1 reproduces the fusion-operator catalogue.
func Table1() []*report.Table {
	t := report.NewTable("Table 1: commonly used fusion operators", "Fusion type", "Formulation", "Meaning")
	t.AddRow("Zero", "0", "Discards these features")
	t.AddRow("Sum", "x + y", "Sum features")
	t.AddRow("Concat", "ReLU(Concat(x,y)W + b)", "Concat features")
	t.AddRow("Tensor", "x ⊗ y", "Outer product-based attention")
	t.AddRow("Attention", "Softmax(xyT/√Cy)", "Use attention mechanism")
	t.AddRow("LinearGLU", "xW1 ⊙ Sigmoid(yW2)", "Linear layer with the GLU")
	t.AddRow("Transformer", "TransformerEnc(tokens)", "Multi-modal transformer fusion")
	t.AddRow("LF", "LSTM(modality sequence)", "LSTM late fusion")
	t.Note = "All operators implemented in internal/fusion; every one is runnable on every workload that lists it."
	return []*report.Table{t}
}

// Table3 reproduces the workload characteristics table from the registry.
func Table3() []*report.Table {
	t := report.NewTable("Table 3: characteristics of each application in MMBench",
		"Workload", "Domain", "Model size", "Modalities", "Encoders", "Fusion methods", "Task")
	for _, name := range workloads.Names() {
		info, err := workloads.Get(name)
		if err != nil {
			continue
		}
		t.AddRow(info.Name, info.Domain, info.ModelSize,
			strings.Join(info.Modalities, ","), info.Encoders,
			strings.Join(info.Fusions, ","), info.Task.String())
	}
	return []*report.Table{t}
}

// fig4Variants selects the variant set trained for Figure 4.
func fig4Variants(info workloads.Info, quick bool) []string {
	var vs []string
	vs = append(vs, "uni:"+info.Major)
	for _, m := range info.Modalities {
		if m != info.Major {
			vs = append(vs, "uni:"+m)
			break // one minor baseline suffices
		}
	}
	fusions := info.Fusions
	if quick && len(fusions) > 2 {
		fusions = fusions[:2]
	}
	return append(vs, fusions...)
}

// Fig4 reproduces the performance comparison. Per workload it trains the
// uni-modal baselines of fig4Variants (the major modality and one minor
// one) and each fusion variant on the planted synthetic data, and
// tabulates every variant's task metric. Its claims row (claims.go)
// asserts what the table shows of the paper's claim: the best fusion
// variant beats the best uni-modal baseline. Not every fusion does — some
// score below a uni-modal baseline (tensor fusion on the regression tasks
// among them) — and fusion choice alone moves the metric by several points.
func Fig4(cfg ExpConfig) ([]*report.Table, error) { return seeded(cfg, fig4At) }

func fig4At(cfg ExpConfig, seed int64) (*report.Table, error) {
	tcfg := cfg.trainConfig()
	tcfg.Seed += seed
	names := workloads.Names()
	if cfg.Quick {
		names = []string{"avmnist"}
	}
	t := report.NewTable("Figure 4: performance of MMBench applications (synthetic planted data)",
		"Workload", "Variant", "Metric", "Value")
	t.Note = "Metrics: accuracy/micro-F1/DSC higher is better; MSE lower is better."
	if !cfg.Quick {
		t.Note += " mmimdb uni:text reads 0: text carries the primary genre on only ≈ 10 % of samples, " +
			"so every evaluation logit is negative and the 0.5 threshold predicts no genre."
	}
	for _, name := range names {
		info, err := workloads.Get(name)
		if err != nil {
			return nil, err
		}
		wcfg := tuneConfig(info.Task, tcfg)
		for _, variant := range fig4Variants(info, cfg.Quick) {
			n, err := workloads.Build(name, variant, false, 42+seed)
			if err != nil {
				return nil, err
			}
			res := train.Fit(n, wcfg)
			t.AddRow(name, variant, train.MetricName(info.Task), report.F(res.Metric))
		}
	}
	return t, nil
}

// Fig5 reproduces the mutually exclusive correct-sample distribution: most
// correct samples are solvable from the major modality alone, and under 5%
// require multi-modal fusion — its claims row (claims.go), which the
// table's Note states.
func Fig5(cfg ExpConfig) ([]*report.Table, error) { return seeded(cfg, fig5At) }

func fig5At(cfg ExpConfig, seed int64) (*report.Table, error) {
	tcfg := cfg.trainConfig()
	tcfg.Seed += seed
	datasets := []string{"avmnist", "mmimdb", "mosei", "mustard"}
	if cfg.Quick {
		datasets = []string{"avmnist"}
	}
	t := report.NewTable("Figure 5: distribution of mutually exclusive correctly-processed sample sets",
		"Workload", "Major modality", "Major-only", "Minor-only", "Fusion-required", "Unsolved")
	for _, name := range datasets {
		info, err := workloads.Get(name)
		if err != nil {
			return nil, err
		}
		var minor string
		for _, m := range info.Modalities {
			if m != info.Major {
				minor = m
				break
			}
		}
		major, err := workloads.Build(name, "uni:"+info.Major, false, 42+seed)
		if err != nil {
			return nil, err
		}
		minorNet, err := workloads.Build(name, "uni:"+minor, false, 42+seed)
		if err != nil {
			return nil, err
		}
		multi, err := workloads.Build(name, info.Fusions[0], false, 42+seed)
		if err != nil {
			return nil, err
		}
		wcfg := tuneConfig(info.Task, tcfg)
		train.Fit(major, wcfg)
		train.Fit(minorNet, wcfg)
		train.Fit(multi, wcfg)

		evalN := 400
		if cfg.Quick {
			evalN = 120
		}
		b := multi.Gen.Batch(tensor.NewRNG(tcfg.Seed+31337), evalN)
		majCorrect := correctSet(major, b)
		minCorrect := correctSet(minorNet, b)
		mulCorrect := correctSet(multi, b)

		var onlyMajor, onlyMinor, fusionReq, unsolved int
		for i := 0; i < evalN; i++ {
			switch {
			case majCorrect[i]:
				onlyMajor++
			case minCorrect[i]:
				onlyMinor++
			case mulCorrect[i]:
				fusionReq++
			default:
				unsolved++
			}
		}
		n := float64(evalN)
		t.AddRow(name, info.Major,
			report.Pct(float64(onlyMajor)/n), report.Pct(float64(onlyMinor)/n),
			report.Pct(float64(fusionReq)/n), report.Pct(float64(unsolved)/n))
	}
	// `mmbench repro check` asserts this Note: the fig5 row of claims.go.
	t.Note = "Paper: >75% of correct samples need only the major modality; <5% require fusion."
	return t, nil
}

// seeded runs a trained figure's driver at each of cfg.Seeds seeds and
// returns the first seed's table as the driver titles it, then each
// further seed's with "(seed k)" in its title, k counted from 1. For two or more
// seeds a last table gives every numeric cell's mean over the seeds, each
// followed by its sample standard deviation in an "sd" column; the other
// cells are the first seed's. The means are of the printed cells.
func seeded(cfg ExpConfig, at func(cfg ExpConfig, seed int64) (*report.Table, error)) ([]*report.Table, error) {
	var tables []*report.Table
	for k := range max(1, cfg.Seeds) {
		t, err := at(cfg, int64(k))
		if err != nil {
			return nil, err
		}
		if k > 0 {
			t.Title = retitle(t.Title, fmt.Sprintf("seed %d", k+1))
		}
		tables = append(tables, t)
	}
	if len(tables) == 1 {
		return tables, nil
	}
	first := tables[0]
	var cols []int // the numeric columns, by the first seed's first row
	for j := range first.Columns {
		if _, err := parseCell(first.Rows[0][j]); err == nil {
			cols = append(cols, j)
		}
	}
	var names []string
	for j, c := range first.Columns {
		if names = append(names, c); slices.Contains(cols, j) {
			names = append(names, c+" sd")
		}
	}
	mean := report.NewTable(retitle(first.Title, fmt.Sprintf("mean of %d seeds", len(tables))), names...)
	mean.Note = fmt.Sprintf("Each numeric cell is the mean over %d seeds, then its sample standard deviation. Seed 1 is the one-seed run; seed k builds every network at 41+k and trains at the training seed plus k−1.", len(tables))
	for i, r := range first.Rows {
		var row []string
		for j, cell := range r {
			if !slices.Contains(cols, j) {
				row = append(row, cell)
				continue
			}
			vs := make([]float64, len(tables))
			var m, ss float64
			for k, t := range tables {
				vs[k], _ = parseCell(t.Rows[i][j]) // NaN when it is not a number
				m += vs[k] / float64(len(vs))
			}
			for _, v := range vs {
				ss += (v - m) * (v - m)
			}
			sd := math.Sqrt(ss / float64(len(vs)-1))
			if strings.HasSuffix(cell, "%") {
				row = append(row, report.Pct(m), report.Pct(sd))
			} else {
				row = append(row, report.F(m), report.F(sd))
			}
		}
		mean.AddRow(row...)
	}
	return append(tables, mean), nil
}

// retitle puts (tag) after the figure name of a "Figure N: …" title.
func retitle(title, tag string) string {
	name, rest, _ := strings.Cut(title, ":")
	return name + " (" + tag + "):" + rest
}

// correctSet evaluates a network over a batch and returns per-sample
// correctness (classification-style argmax against the primary label).
func correctSet(n *mmnet.Network, b *data.Batch) []bool {
	out := n.Forward(ops.Infer(), b)
	preds := train.Predictions(out)
	correct := make([]bool, b.Size)
	for i, p := range preds {
		correct[i] = p == b.Labels[i]
	}
	return correct
}

// sortedStageNames returns stage keys in canonical encoder/fusion/head
// order, dropping empty stages.
func sortedStages[T any](m map[string]T) []string {
	order := map[string]int{"encoder": 0, "fusion": 1, "head": 2}
	var keys []string
	for k := range m {
		if k == "" {
			continue
		}
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		oi, iok := order[keys[i]]
		oj, jok := order[keys[j]]
		if iok && jok {
			return oi < oj
		}
		return keys[i] < keys[j]
	})
	return keys
}
