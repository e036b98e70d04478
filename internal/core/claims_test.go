package core

import (
	"encoding/json"
	"errors"
	"slices"
	"strings"
	"testing"

	"mmbench/internal/report"
	"mmbench/internal/train"
	"mmbench/internal/workloads"
)

// An edit sets the cell in column col of the row whose leading cells are
// key, in the table whose title starts with title.
type edit struct {
	title string
	key   []string
	col   string
	to    string
}

// perturbed returns a deep copy of tables with the edits applied. An edit
// that finds no cell fails the test: no perturbation is vacuous.
func perturbed(t *testing.T, tables []*report.Table, edits ...edit) []*report.Table {
	t.Helper()
	var out []*report.Table
	if b, err := json.Marshal(tables); err != nil || json.Unmarshal(b, &out) != nil {
		t.Fatal("copying the tables failed")
	}
	for _, e := range edits {
		tab, r := (&cells{tables: out}).row(e.title, e.key)
		if tab == nil || !slices.Contains(tab.Columns, e.col) {
			t.Fatalf("%s: no cell %v/%q to perturb", e.title, e.key, e.col)
		}
		r[slices.Index(tab.Columns, e.col)] = e.to
	}
	return out
}

// claimPerturbations lists, per figure, edits that each contradict its
// claim. The first edit of the first entry is the claim's decisive cell.
var claimPerturbations = map[string][][]edit{
	"fig4": {
		{{"Figure 4:", []string{"push", "uni:image"}, "Value", "0.010"}}, // uni-modal MSE below every fusion's
	},
	"fig5": {
		{{"Figure 5:", []string{"mosei"}, "Major-only", "70.0%"}},
		{{"Figure 5:", []string{"mmimdb"}, "Fusion-required", "5.0%"}},
	},
	"fig6": {
		{{"Figure 6:", []string{"mmimdb"}, "Encoder", "0.029"}, {"Figure 6:", []string{"mmimdb"}, "Fusion", "38.996"}}, // swapped
		{{"Figure 6:", []string{"vnt"}, "Enc/Total", "45.0%"}},
		{{"Figure 6:", []string{"push"}, "Fusion", "0.300"}},
	},
	"fig8": {
		{{"Figure 8:", []string{"mmimdb", "encoder"}, "Conv", "5.0%"}},
		{{"Figure 8:", []string{"avmnist", "fusion"}, "Gemm", "20.0%"}},
	},
	"fig10": {
		{{"Figure 10:", []string{"mmimdb", "image"}, "Time (ms)", "2.963"}},
		{{"Figure 10:", []string{"push", "control"}, "Time (ms)", "0.100"}},
	},
	"fig11": {
		{{"Figure 11:", []string{"push", "multi"}, "CPU+Runtime", "80.0%"}},
		{{"Figure 11:", []string{"vnt", "multi"}, "Variant", "dropped"}}, // no vnt multi row
	},
	"fig12": {
		{{"Figure 12a:", []string{"slfs", "400"}, "0-10us", "100.0%"}},
		{{"Figure 12b:", []string{"image", "400"}, "Inference time (s)", "0.300"}},
	},
	"fig13": {
		{{"Figure 13:", []string{"multi", "400"}, "Intermediate", "1.000"}},
		{{"Figure 13:", []string{"uni", "200"}, "Intermediate share", "95.0%"}},
	},
	"fig14": {
		{{"Figure 14:", []string{"nano", "40"}, "slfs (s)", "1.000"}},
		{{"Figure 14:", []string{"nano", "320"}, "slfs (s)", "0.700"}}, // b320 cheaper than b160
		{{"Figure 14:", []string{"2080ti", "320"}, "slfs (s)", "0.200"}},
	},
	"fig15": {
		{{"Figure 15: stall breakdown on 2080ti", []string{"slfs (multi)"}, "Mem", "5.0%"}},
		{{"Figure 15: stall breakdown on nano", []string{"head"}, "Exec", "15.0%"}},
	},
}

// trainedFixtures stand in for the trained figures, which take minutes at
// full scale: Figure 5 as a full-scale run prints it, and a Figure 4 in
// which every fusion beats every uni-modal network by 0.1 (by 0.1 less
// MSE on the regression tasks, so the claim reads MSE lower-is-better).
func trainedFixtures() map[string][]*report.Table {
	fig5 := report.NewTable("Figure 5:", "Workload", "Major modality", "Major-only", "Minor-only", "Fusion-required", "Unsolved")
	fig5.AddRow("avmnist", "image", "87.0%", "6.8%", "1.0%", "5.2%")
	fig5.AddRow("mmimdb", "image", "85.2%", "0.8%", "3.5%", "10.5%")
	fig5.AddRow("mosei", "text", "94.5%", "4.5%", "0.0%", "1.0%")
	fig5.AddRow("mustard", "text", "89.2%", "8.8%", "1.0%", "1.0%")
	fig4 := report.NewTable("Figure 4:", "Workload", "Variant", "Metric", "Value")
	for _, name := range workloads.Names() {
		info, _ := workloads.Get(name) // a registered name: Get cannot fail
		metric, uni, fusion := train.MetricName(info.Task), "0.500", "0.600"
		if metric == "MSE" {
			uni, fusion = fusion, uni
		}
		for _, v := range fig4Variants(info, false) {
			value := fusion
			if strings.HasPrefix(v, "uni:") {
				value = uni
			}
			fig4.AddRow(name, v, metric, value)
		}
	}
	return map[string][]*report.Table{"fig4": {fig4}, "fig5": {fig5}}
}

// TestClaimsRejectPerturbedTables shows each claim reads the cells it
// names: it holds on its figure's tables (freshly rendered, or
// trainedFixtures), and fails when a decisive cell moves, reads "n/a",
// or its tables are missing.
func TestClaimsRejectPerturbedTables(t *testing.T) {
	figures := trainedFixtures()
	for _, cl := range claims {
		if !cl.trained() {
			tables, err := RunExperiment(cl.figure, ExpConfig{Quick: true})
			if err != nil {
				t.Fatal(err)
			}
			figures[cl.figure] = tables
		}
	}
	for _, cl := range claims {
		t.Run(cl.figure, func(t *testing.T) {
			tables, perts := figures[cl.figure], claimPerturbations[cl.figure]
			if reading, ok := cl.eval(tables, nil); !ok || len(perts) == 0 {
				t.Fatalf("fails unperturbed (%s) or has no perturbation", reading)
			}
			for _, edits := range perts {
				if reading, ok := cl.eval(perturbed(t, tables, edits...), nil); ok {
					t.Errorf("holds after %v: %s", edits, reading)
				}
			}
			na := perts[0][0]
			na.to = "n/a"
			if reading, ok := cl.eval(perturbed(t, tables, na), nil); ok || !strings.Contains(reading, "not a number") {
				t.Errorf("decisive cell n/a: ok=%v, reading %q", ok, reading)
			}
			if reading, ok := cl.eval(nil, nil); ok || !strings.Contains(reading, "no table") {
				t.Errorf("no tables: ok=%v, reading %q", ok, reading)
			}
		})
	}

	// `mmbench repro check -quick` is checkClaims over these figures: the
	// analytic claims pass and the trained ones skip, so it exits 0. A
	// predicate broken on purpose, or a failing driver, returns the error
	// the command exits nonzero on.
	run := func(id string) ([]*report.Table, error) { return figures[id], nil }
	got, err := checkClaims(claims, true, 1, run)
	var statuses []string
	for _, row := range got.Rows {
		statuses = append(statuses, row[1])
	}
	if s := strings.Join(statuses, " "); err != nil || s != "skip skip pass pass pass pass pass pass pass pass" {
		t.Errorf("quick check: %s, err %v", s, err)
	}
	broken := slices.Clone(claims)
	last := len(broken) - 1
	broken[last].tol = 1 // fig15: the Nano's Exec share a full 100 points above the server's
	if got, err = checkClaims(broken, true, 1, run); err == nil || got.Rows[last][1] != "fail" {
		t.Errorf("a broken predicate left the check passing: err %v", err)
	}
	failing := func(string) ([]*report.Table, error) { return nil, errors.New("driver failed") }
	if _, err := checkClaims(claims, true, 1, failing); err == nil {
		t.Error("failing drivers left the check passing")
	}
}

// TestClaimsOverSeeds pins the trained claims' multi-seed rule on
// trainedFixtures run through seeded at three seeds, with edits at some
// seeds: a claim holds over the seeds' mean and at all seeds but one.
func TestClaimsOverSeeds(t *testing.T) {
	fix := trainedFixtures()
	fusionReq := edit{"Figure 5:", []string{"mmimdb"}, "Fusion-required", "5.0%"}
	pushUni := edit{"Figure 4:", []string{"push", "uni:image"}, "Value", "0.010"}
	for _, c := range []struct {
		figure  string
		e       edit
		at      []int64 // the seeds the edit is made at
		holding string
		ok      bool
	}{
		{"fig5", fusionReq, nil, "3 of 3", true},
		{"fig5", fusionReq, []int64{0}, "2 of 3", true},     // mean 4.0%
		{"fig5", fusionReq, []int64{0, 2}, "1 of 3", false}, // mean 4.5%, two seeds fail
		{"fig4", pushUni, nil, "3 of 3", true},
		{"fig4", pushUni, []int64{1}, "2 of 3", false}, // the mean's uni-modal MSE beats every fusion's
	} {
		tables, err := seeded(ExpConfig{Seeds: 3}, func(_ ExpConfig, seed int64) (*report.Table, error) {
			if slices.Contains(c.at, seed) {
				return perturbed(t, fix[c.figure], c.e)[0], nil
			}
			return perturbed(t, fix[c.figure])[0], nil
		})
		if err != nil {
			t.Fatal(err)
		}
		run := func(id string) ([]*report.Table, error) { return tables, nil }
		var list []claim
		for _, cl := range claims {
			if cl.figure == c.figure {
				list = append(list, cl)
			}
		}
		got, err := checkClaims(list, false, 3, run)
		row := got.Rows[0]
		if want := []string{"Figure", "Status", "Reading", "Mean of 3 seeds", "Seeds holding", "Paper"}; !slices.Equal(got.Columns, want) {
			t.Fatalf("columns %v, want %v", got.Columns, want)
		}
		if row[4] != c.holding || (row[1] == "pass") != c.ok || (err == nil) != c.ok {
			t.Errorf("%s with %v at seeds %v: %v, err %v; want %s holding, pass=%v", c.figure, c.e, c.at, row, err, c.holding, c.ok)
		}
	}

	// The mean table: mean and sample standard deviation of each printed
	// cell, in its own format, with the other cells kept.
	vals := []string{"3.5%", "3.5%", "5.0%"}
	tables, _ := seeded(ExpConfig{Seeds: 3}, func(_ ExpConfig, seed int64) (*report.Table, error) {
		return perturbed(t, fix["fig5"], edit{"Figure 5:", []string{"mmimdb"}, "Fusion-required", vals[seed]})[0], nil
	})
	mean := tables[3]
	if !strings.HasPrefix(tables[1].Title, "Figure 5 (seed 2):") || !strings.HasPrefix(mean.Title, "Figure 5 (mean of 3 seeds):") {
		t.Errorf("titles %q, %q", tables[1].Title, mean.Title)
	}
	if r := mean.Rows[1]; !slices.Equal(r[:2], []string{"mmimdb", "image"}) || r[6] != "4.0%" || r[7] != "0.9%" || r[2] != "85.2%" || r[3] != "0.0%" {
		t.Errorf("mean row %v", r)
	}

	// A run with a table short fails the claim, not the reader.
	if mean, ok, _ := claims[1].evalSeeds(tables[:3], nil, 3); ok || !strings.Contains(mean, "want one per seed") {
		t.Errorf("three tables for three seeds: ok=%v, %q", ok, mean)
	}
}
