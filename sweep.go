package mmbench

import (
	"fmt"
	"strconv"
	"strings"

	"mmbench/internal/jobs"
	"mmbench/internal/report"
)

// SweepConfig describes a profiling sweep: one workload variant across
// a device × batch-size grid (the tuning-knob exploration behind the
// paper's Section 5 case studies).
type SweepConfig struct {
	Workload string
	Variant  string
	Devices  []string
	Batches  []int
	// Tasks, when > 0, adds a column with the modeled total time to
	// serve that many inference tasks at each configuration. The final
	// partial batch is charged at its own modeled latency, not a full
	// batch's.
	Tasks int
	// Precisions, when non-empty, adds a storage-precision axis to the
	// grid: one row per (device, batch, policy), each policy in the
	// -precision flag syntax ("f32", "f16", "head=i8,fusion=f16", …).
	// The table gains a Precision column and, for eager sweeps, a
	// max-output-error column against the f32 reference. An empty list
	// sweeps float32 only and renders the exact pre-mixed-precision
	// table.
	Precisions []string
	// Eager executes real numerics instead of the analytic abstraction,
	// with Seed driving data generation — required for measured (rather
	// than modeled) precision comparisons.
	Eager bool
	Seed  int64
}

// SweepJob expands a sweep into one closure per distinct configuration
// plus an assembly step turning their Reports into the sweep table —
// the pieces a jobs.Pool group submission needs. run executes a single
// configuration (a CachedRunner's Run, or plain Run; nil defaults to a
// fresh CachedRunner scoped to this sweep, so an eager grid builds its
// model once). Rows are emitted one per (device, batch) in
// grid order, so assembly is deterministic no matter how the closures
// are scheduled.
func SweepJob(cfg SweepConfig, run func(RunConfig) (*Report, error)) ([]jobs.Fn, func([]any) (any, error), error) {
	if run == nil {
		run = NewCachedRunner(64 << 20).Run
	}
	if len(cfg.Devices) == 0 || len(cfg.Batches) == 0 {
		return nil, nil, fmt.Errorf("mmbench: sweep needs at least one device and one batch size")
	}
	for _, b := range cfg.Batches {
		if b <= 0 {
			return nil, nil, fmt.Errorf("mmbench: sweep batch size %d is not positive", b)
		}
	}

	type row struct {
		batch   int
		main    int // index into configs
		partial int // index into configs, or -1
	}
	precisions := cfg.Precisions
	withPrecision := len(precisions) > 0
	if !withPrecision {
		precisions = []string{""} // float32 only, no extra columns
	}
	var (
		configs []RunConfig
		index   = map[string]int{}
		rows    []row
	)
	add := func(rc RunConfig) int {
		k := rc.cacheKey()
		if i, ok := index[k]; ok {
			return i
		}
		index[k] = len(configs)
		configs = append(configs, rc)
		return len(configs) - 1
	}
	for _, dev := range cfg.Devices {
		for _, batch := range cfg.Batches {
			for _, pol := range precisions {
				rc := RunConfig{
					Workload:   cfg.Workload,
					Variant:    cfg.Variant,
					Device:     strings.TrimSpace(dev),
					BatchSize:  batch,
					PaperScale: true,
					Eager:      cfg.Eager,
					Seed:       cfg.Seed,
					Precision:  strings.TrimSpace(pol),
				}
				r := row{batch: batch, main: add(rc), partial: -1}
				if rem := remainder(cfg.Tasks, batch); rem > 0 {
					prc := rc
					prc.BatchSize = rem
					r.partial = add(prc)
				}
				rows = append(rows, r)
			}
		}
	}

	fns := make([]jobs.Fn, len(configs))
	for i, rc := range configs {
		rc := rc
		fns[i] = func() (any, error) { return run(rc) }
	}

	assemble := func(results []any) (any, error) {
		if len(results) != len(configs) {
			return nil, fmt.Errorf("mmbench: sweep got %d results for %d configs", len(results), len(configs))
		}
		reports := make([]*Report, len(results))
		for i, res := range results {
			rep, ok := res.(*Report)
			if !ok || rep == nil {
				return nil, fmt.Errorf("mmbench: sweep config %d produced no report", i)
			}
			reports[i] = rep
		}
		cols := []string{"Device", "Batch"}
		if withPrecision {
			cols = append(cols, "Precision")
		}
		cols = append(cols, "Latency (ms)", "GPU (ms)", "CPU+Runtime", "Intermediate (MB)")
		if withPrecision {
			// The accuracy-delta axis: largest output-element error of
			// the low-precision run versus the f32 reference. Only eager
			// rows have numerics to compare; analytic rows (and f32
			// rows) show "-".
			cols = append(cols, "Max |err| vs f32")
		}
		if cfg.Tasks > 0 {
			cols = append(cols, fmt.Sprintf("Total for %d tasks (s)", cfg.Tasks))
		}
		t := report.NewTable(fmt.Sprintf("Sweep: %s/%s", cfg.Workload, cfg.Variant), cols...)
		for _, r := range rows {
			rep := reports[r.main]
			cells := []string{rep.Device, strconv.Itoa(r.batch)}
			if withPrecision {
				pol := rep.Precision
				if pol == "" {
					pol = "f32"
				}
				cells = append(cells, pol)
			}
			cells = append(cells,
				report.Ms(rep.LatencySeconds), report.Ms(rep.GPUSeconds),
				report.Pct(rep.CPUShare), report.F(rep.Memory.Intermediate))
			if withPrecision {
				errCell := "-"
				if cfg.Eager && rep.Precision != "" {
					errCell = report.F(rep.OutputErrMax)
				}
				cells = append(cells, errCell)
			}
			if cfg.Tasks > 0 {
				total := rep.LatencySeconds * float64(cfg.Tasks/r.batch)
				if r.partial >= 0 {
					total += reports[r.partial].LatencySeconds
				}
				cells = append(cells, report.F(total))
			}
			t.AddRow(cells...)
		}
		return t, nil
	}
	return fns, assemble, nil
}

// RunSweep profiles every configuration of the grid and assembles the
// sweep table. pool, when non-nil, fans the distinct configurations out
// across its workers; output is byte-identical to a sequential sweep
// either way.
func RunSweep(cfg SweepConfig, run func(RunConfig) (*Report, error), pool *jobs.Pool) (*Table, error) {
	fns, assemble, err := SweepJob(cfg, run)
	if err != nil {
		return nil, err
	}
	results := make([]any, len(fns))
	if pool == nil {
		for i, fn := range fns {
			if results[i], err = fn(); err != nil {
				return nil, err
			}
		}
	} else {
		if results, err = pool.Map(fns); err != nil {
			return nil, err
		}
	}
	v, err := assemble(results)
	if err != nil {
		return nil, err
	}
	return v.(*Table), nil
}

// remainder returns the size of the final partial batch when serving
// tasks at the given batch size (0 when tasks divide evenly or the
// total-time column is off).
func remainder(tasks, batch int) int {
	if tasks <= 0 {
		return 0
	}
	return tasks % batch
}
