package core

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"mmbench/internal/data"
	"mmbench/internal/report"
	"mmbench/internal/workloads"
)

// The paper's findings as one checklist: one claim per figure, a predicate
// over the printed cells of the tables its driver returns, so a claim holds
// exactly when a reader of `mmbench repro` would see it hold. `go test`
// checks the analytic claims (Figs 6–15); `mmbench repro check` checks all,
// and under -quick skips the trained Figs 4 and 5.

// A claim is one figure's finding.
type claim struct {
	figure string  // the experiment whose tables check reads
	paper  string  // the finding, as the paper states it
	tol    float64 // the margin of check's main comparison
	// check returns what it read and whether the claim holds. A failed
	// lookup fails the claim whatever check returns: it never skips.
	check func(c *cells, tol float64) (reading string, ok bool)
}

func (cl claim) trained() bool { return cl.figure == "fig4" || cl.figure == "fig5" }

// eval checks the claim over its figure's tables, or reports its driver's err.
func (cl claim) eval(tables []*report.Table, err error) (reading string, ok bool) {
	c := &cells{tables: tables, err: err}
	reading, ok = cl.check(c, cl.tol)
	if c.err != nil {
		return c.err.Error(), false
	}
	return reading, ok
}

// claims is the checklist, in figure order.
var claims = []claim{{
	// mmimdb's uni:text reads 0 and never decides the margin: its text
	// carries the primary genre on only ≈ 10 % of samples (Mix: 7 %
	// minor-only, 2.9 % either), so "no genre" is its loss-optimal answer.
	// All 4 416 evaluation logits (192 samples × 23 genres) are negative,
	// the 0.5 threshold predicts no genre and micro-F1 is 0.
	figure: "fig4", tol: 0,
	paper: "The best fusion beats the best uni-modal network on every application (MSE: lower is better).",
	check: func(c *cells, tol float64) (string, bool) {
		var margin least
		for _, name := range workloads.Names() {
			info, _ := workloads.Get(name) // a registered name: Get cannot fail
			sign := 1.0
			if info.Task == data.Regress { // MSE
				sign = -1
			}
			uni, fusion := math.Inf(-1), math.Inf(-1)
			for _, v := range fig4Variants(info, false) {
				if score := sign * c.num("Figure 4:", "Value", name, v); strings.HasPrefix(v, "uni:") {
					uni = max(uni, score)
				} else {
					fusion = max(fusion, score)
				}
			}
			margin.see(fusion-uni, name)
		}
		return fmt.Sprintf("best fusion ahead of best uni-modal by ≥ %.3f (%s)", margin.v, margin.at), margin.v > tol
	},
}, {
	figure: "fig5", tol: 0.75,
	paper: "Over 75% of correctly processed samples need only the major modality; under 5% require fusion.",
	check: func(c *cells, tol float64) (string, bool) {
		var major, fusion least // fusion holds the negated share: its least is the largest
		for _, name := range []string{"avmnist", "mmimdb", "mosei", "mustard"} {
			major.see(c.num("Figure 5:", "Major-only", name)/(1-c.num("Figure 5:", "Unsolved", name)), name)
			fusion.see(-c.num("Figure 5:", "Fusion-required", name), name)
		}
		return fmt.Sprintf("major-only ≥ %s of solved samples (%s); fusion-required ≤ %s (%s)",
			report.Pct(major.v), major.at, report.Pct(-fusion.v), fusion.at), major.v >= tol && -fusion.v < 0.05
	},
}, {
	figure: "fig6", tol: 10,
	paper: "Encoders dominate execution time (mmimdb: ≥ 10× fusion), except under heavy fusion: MuJoCo Push's transformer fusion outlasts its encoders.",
	check: func(c *cells, tol float64) (string, bool) {
		const t = "Figure 6:"
		mmimdb := c.num(t, "Encoder", "mmimdb") / c.num(t, "Fusion", "mmimdb")
		push := c.num(t, "Fusion", "push") / c.num(t, "Encoder", "push")
		var share least
		for _, name := range workloads.Names() {
			if name != "push" {
				share.see(c.num(t, "Enc/Total", name), name)
			}
		}
		return fmt.Sprintf("mmimdb encoder %s× fusion; encoder share ≥ %s (%s) everywhere but push, whose fusion is %s× its encoder",
			report.F(mmimdb), report.Pct(share.v), share.at, report.F(push)), mmimdb >= tol && share.v > 0.5 && push > 1
	},
}, {
	figure: "fig8", tol: 0,
	paper: "Each stage has its own kernel mix: convolution leads the convolutional encoders, GEMM the fusion stage.",
	check: func(c *cells, tol float64) (string, bool) {
		var conv, gemm least
		for _, name := range []string{"medseg", "medvqa", "mmimdb", "push", "transfuser", "vnt"} {
			conv.see(c.lead("Figure 8:", "Conv", name, "encoder"), name)
		}
		for _, name := range workloads.Names() {
			gemm.see(c.lead("Figure 8:", "Gemm", name, "fusion"), name)
		}
		return fmt.Sprintf("Conv leads the conv encoders by ≥ %s (%s); Gemm leads every fusion stage by ≥ %s (%s)",
			pt(conv.v), conv.at, pt(gemm.v), gemm.at), conv.v > tol && gemm.v > tol
	},
}, {
	figure: "fig10", tol: 10,
	paper: "Modalities are imbalanced: the image encoder takes ≥ 10× as long as another modality's.",
	check: func(c *cells, tol float64) (string, bool) {
		var ratio least
		for _, name := range []string{"mmimdb", "push"} {
			info, _ := workloads.Get(name) // a registered name: Get cannot fail
			for _, m := range info.Modalities {
				if m != "image" {
					ratio.see(c.num("Figure 10:", "Time (ms)", name, "image")/c.num("Figure 10:", "Time (ms)", name, m), name+" "+m)
				}
			}
		}
		return fmt.Sprintf("image encoder ≥ %s× every other modality (%s)", report.F(ratio.v), ratio.at), ratio.v >= tol
	},
}, {
	figure: "fig11", tol: 0,
	paper: "Multi-modal networks spend a larger share of time in CPU+runtime than uni-modal ones.",
	check: func(c *cells, tol float64) (string, bool) {
		var gap least
		for _, name := range []string{"avmnist", "push", "medseg", "vnt"} {
			gap.see(c.num("Figure 11:", "CPU+Runtime", name, "multi")-c.num("Figure 11:", "CPU+Runtime", name, "uni"), name)
		}
		return fmt.Sprintf("multi − uni ≥ %s (%s)", pt(gap.v), gap.at), gap.v > tol
	},
}, {
	figure: "fig12", tol: 0,
	paper: "A larger batch moves kernels out of the shortest duration bucket and cuts total inference time.",
	check: func(c *cells, tol float64) (string, bool) {
		var fall, speedup least
		for _, v := range []string{"slfs", "image"} {
			fall.see(c.num("Figure 12a:", "0-10us", v, "40")-c.num("Figure 12a:", "0-10us", v, "400"), v)
			speedup.see(c.num("Figure 12b:", "Inference time (s)", v, "40")/c.num("Figure 12b:", "Inference time (s)", v, "400"), v)
		}
		return fmt.Sprintf("batch 40 → 400: 0-10us share falls ≥ %s (%s), inference time ≥ %s× shorter (%s)",
			pt(fall.v), fall.at, report.F(speedup.v), speedup.at), fall.v > tol && speedup.v > 1
	},
}, {
	figure: "fig13", tol: 10,
	paper: "Intermediates overtake model memory (≥ 10× at batch 400), and their share grows with batch size.",
	check: func(c *cells, tol float64) (string, bool) {
		var ratio least
		rising := true
		for _, v := range []string{"uni", "multi"} {
			share := math.Inf(-1)
			for _, b := range []string{"20", "40", "100", "200", "400"} {
				next := c.num("Figure 13:", "Intermediate share", v, b)
				rising = rising && next > share
				share = next
			}
			ratio.see(c.num("Figure 13:", "Intermediate", v, "400")/c.num("Figure 13:", "Model", v, "400"), v)
		}
		return fmt.Sprintf("intermediates ≥ %s× model at batch 400 (%s); share rising with batch: %v",
			report.F(ratio.v), ratio.at, rising), ratio.v >= tol && rising
	},
}, {
	figure: "fig14", tol: 2,
	paper: "The Jetson Nano is much slower than the server (≥ 2×); on the Nano batch 320 is slower than 160 as memory capacity runs out, while the server keeps improving.",
	check: func(c *cells, tol float64) (string, bool) {
		slfs := func(dev, batch string) float64 { return c.num("Figure 14:", "slfs (s)", dev, batch) }
		var ratio least
		for _, b := range []string{"40", "80", "160", "320"} {
			ratio.see(slfs("nano", b)/slfs("2080ti", b), "batch "+b)
		}
		nano, gpu := slfs("nano", "320")/slfs("nano", "160"), slfs("2080ti", "320")/slfs("2080ti", "160")
		return fmt.Sprintf("nano ≥ %s× the 2080ti (%s); batch 320 vs 160: nano %s×, 2080ti %s×",
			report.F(ratio.v), ratio.at, report.F(nano), report.F(gpu)), ratio.v >= tol && nano > 1 && gpu < 1
	},
}, {
	figure: "fig15", tol: 0.10,
	paper: "The stall mix depends on the device: memory stalls lead on the server, execution stalls grow on the Nano.",
	check: func(c *cells, tol float64) (string, bool) {
		const gpu, nano = "Figure 15: stall breakdown on 2080ti", "Figure 15: stall breakdown on nano"
		var mem, exec least
		for _, row := range []string{"uni0 (audio)", "uni1 (image)", "slfs (multi)", "encoder", "fusion", "head"} {
			mem.see(c.lead(gpu, "Mem", row), row)
			exec.see(c.num(nano, "Exec", row)-c.num(gpu, "Exec", row), row)
		}
		return fmt.Sprintf("2080ti: Mem leads every row by ≥ %s (%s); nano Exec ≥ %s above the 2080ti's (%s)",
			pt(mem.v), mem.at, pt(exec.v), exec.at), mem.v > 0 && exec.v >= tol
	},
}}

// evalSeeds checks a trained claim over its figure's tables from a run at
// seeds ≥ 2 seeds (seeded's layout): at each seed and over their mean,
// each table read as if it were the first seed's. The claim holds when it holds
// over the mean and at all seeds but at most one. It returns the mean's
// reading and the number of seeds at which the claim holds.
func (cl claim) evalSeeds(tables []*report.Table, err error, seeds int) (mean string, ok bool, holding int) {
	if err == nil && len(tables) != seeds+1 {
		err = fmt.Errorf("%s: %d tables, want one per seed and their mean (%d)", cl.figure, len(tables), seeds+1)
	}
	if err != nil {
		mean, _ = cl.eval(nil, err)
		return mean, false, 0
	}
	as0 := func(t *report.Table) []*report.Table {
		v := *t
		v.Title = tables[0].Title
		return []*report.Table{&v}
	}
	for _, t := range tables[:seeds] {
		if _, ok := cl.eval(as0(t), nil); ok {
			holding++
		}
	}
	mean, ok = cl.eval(as0(tables[seeds]), nil)
	return mean, ok && holding >= seeds-1, holding
}

// CheckClaims evaluates every claim on a fresh run of its figure and
// returns one row per claim: pass, fail (with what it read, or why it
// could not read it) or skip (a trained claim under cfg.Quick). The error
// names the failed claims. At cfg.Seeds ≥ 2 the Reading column is still
// the first seed's; two more columns give each trained claim's reading over the
// seeds' mean and how many seeds it holds at, and its status is
// evalSeeds's.
func CheckClaims(cfg ExpConfig) (*report.Table, error) {
	return checkClaims(claims, cfg.Quick, cfg.Seeds, func(id string) ([]*report.Table, error) { return RunExperiment(id, cfg) })
}

func checkClaims(list []claim, quick bool, seeds int, run func(id string) ([]*report.Table, error)) (*report.Table, error) {
	cols := []string{"Figure", "Status", "Reading", "Paper"}
	if seeds > 1 {
		cols = slices.Insert(cols, 3, fmt.Sprintf("Mean of %d seeds", seeds), "Seeds holding")
	}
	t := report.NewTable("Paper claims", cols...)
	var failed []string
	for _, cl := range list {
		row := []string{cl.figure, "skip", "needs full-scale training (drop -quick)"}
		mean, holding := "-", "-"
		if !quick || !cl.trained() {
			tables, err := run(cl.figure)
			reading, ok := cl.eval(tables, err)
			if seeds > 1 && cl.trained() {
				var n int
				mean, ok, n = cl.evalSeeds(tables, err, seeds)
				holding = fmt.Sprintf("%d of %d", n, seeds)
			}
			if !ok {
				failed = append(failed, cl.figure)
			}
			row = []string{cl.figure, map[bool]string{true: "pass", false: "fail"}[ok], reading}
		}
		if seeds > 1 {
			row = append(row, mean, holding)
		}
		t.AddRow(append(row, cl.paper)...)
	}
	if len(failed) > 0 {
		return t, fmt.Errorf("%d of %d claims failed: %s", len(failed), len(list), strings.Join(failed, ", "))
	}
	return t, nil
}

// cells reads a figure's numbers by table title (a prefix), row key (the
// row's leading cells) and column name, and keeps the first failed lookup.
type cells struct {
	tables []*report.Table
	err    error
}

func (c *cells) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf(format, args...)
	}
}

// row returns the table whose title starts with title and its row key.
func (c *cells) row(title string, key []string) (*report.Table, []string) {
	if i := slices.IndexFunc(c.tables, func(t *report.Table) bool { return strings.HasPrefix(t.Title, title) }); i >= 0 {
		for _, r := range c.tables[i].Rows {
			if slices.Equal(r[:len(key)], key) {
				return c.tables[i], r
			}
		}
	}
	c.fail("no table %q with a row %v", title, key)
	return nil, nil
}

// num parses the cell in column col of row key with parseCell. A missing
// cell, or one that is not a finite number ("n/a"), fails the lookup and
// reads NaN.
func (c *cells) num(title, col string, key ...string) float64 {
	s := ""
	if t, r := c.row(title, key); t != nil && slices.Contains(t.Columns, col) {
		s = r[slices.Index(t.Columns, col)]
	}
	v, err := parseCell(s)
	if err != nil {
		c.fail("%s %v %s: %v", title, key, col, err)
	}
	return v
}

// parseCell reads a cell as report.Ms, report.F or report.Pct (returned as
// a fraction) print it. A cell that is not a finite number reads NaN and
// an error.
func parseCell(s string) (float64, error) {
	scale := 1.0
	if p, ok := strings.CutSuffix(s, "%"); ok {
		s, scale = p, 0.01
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
		return math.NaN(), fmt.Errorf("cell %q is not a number", s)
	}
	return v * scale, nil
}

// lead returns how far the share in column want exceeds the largest other
// share of row key (every column after the key is a share).
func (c *cells) lead(title, want string, key ...string) float64 {
	others := math.Inf(-1)
	if t, _ := c.row(title, key); t != nil {
		for _, col := range t.Columns[len(key):] {
			if col != want {
				others = max(others, c.num(title, col, key...))
			}
		}
	}
	return c.num(title, want, key...) - others
}

// least tracks the smallest reading and where it was read; a NaN sticks.
type least struct {
	v  float64
	at string
}

func (l *least) see(v float64, at string) {
	if l.at == "" || v < l.v || math.IsNaN(v) {
		l.v, l.at = v, at
	}
}

// pt formats a difference of two fractions in percentage points.
func pt(frac float64) string { return fmt.Sprintf("%.1f pt", frac*100) }
