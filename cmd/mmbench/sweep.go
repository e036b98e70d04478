package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"

	"mmbench"
	"mmbench/internal/jobs"
	"mmbench/internal/report"
)

// cmdSweep profiles one workload variant across batch sizes and devices,
// emitting one row per configuration — the tuning-knob exploration the
// paper's Section 5 case studies are built from. Configurations run in
// parallel across a worker pool with cached deduplication; row order is
// deterministic regardless of worker count.
func cmdSweep(args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	workload := fs.String("workload", "avmnist", "workload name")
	variant := fs.String("variant", "", "fusion method or uni:<modality>")
	devices := fs.String("devices", "2080ti,orin,nano", "comma-separated device list")
	batches := fs.String("batches", "32,64,128,256", "comma-separated batch sizes")
	tasks := fs.Int("tasks", 0, "if > 0, also report total time for this many inference tasks")
	workers := fs.Int("workers", runtime.NumCPU(), "parallel profiling workers (1 = sequential)")
	format := fs.String("format", "text", "output format: text, csv or json")
	precisions := fs.String("precision", "",
		"semicolon-separated precision policies to sweep (each in -precision syntax, e.g. 'f32;f16;head=i8,fusion=f16'); adds Precision and max-error columns")
	eager := fs.Bool("eager", false, "execute real numerics (measures the precision error column instead of leaving it modeled)")
	seed := fs.Int64("seed", 0, "eager-mode data seed (0 = suite default)")
	computeWorkers := computeWorkersFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	precList, err := parsePrecisions(*precisions)
	if err != nil {
		return err
	}
	configureCompute(*computeWorkers, *workers)

	batchList, err := parseInts(*batches)
	if err != nil {
		return fmt.Errorf("bad -batches: %w", err)
	}
	cfg := mmbench.SweepConfig{
		Workload:   *workload,
		Variant:    *variant,
		Devices:    strings.Split(*devices, ","),
		Batches:    batchList,
		Tasks:      *tasks,
		Precisions: precList,
		Eager:      *eager,
		Seed:       *seed,
	}

	var pool *jobs.Pool
	if *workers > 1 {
		pool = jobs.NewPool(*workers, 2*(*workers))
		defer pool.Shutdown(context.Background())
	}
	t, err := mmbench.RunSweep(cfg, nil, pool)
	if err != nil {
		return err
	}
	return report.Render(os.Stdout, *format, t)
}

// parsePrecisions splits the sweep's -precision flag into individual
// policies. Policies contain commas ("head=i8,fusion=f16"), so the list
// separator is a semicolon. Each policy is validated at flag time.
func parsePrecisions(list string) ([]string, error) {
	if strings.TrimSpace(list) == "" {
		return nil, nil
	}
	var out []string
	for _, pol := range strings.Split(list, ";") {
		pol = strings.TrimSpace(pol)
		if err := validatePrecision(pol); err != nil {
			return nil, err
		}
		out = append(out, pol)
	}
	return out, nil
}

func parseInts(csv string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(csv, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		if v <= 0 {
			return nil, fmt.Errorf("non-positive value %d", v)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}
