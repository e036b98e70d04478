// Command mmbench is the benchmark suite's command line interface.
//
// Usage:
//
//	mmbench list                         list workloads and variants
//	mmbench devices                      list hardware profiles
//	mmbench run [flags]                  profile one workload variant
//	mmbench train [flags]                train a variant and report metric
//	mmbench repro [flags] <id>|all       regenerate a paper table/figure
//	mmbench sweep [flags]                sweep batch sizes and devices
//	mmbench place [flags]                plan stage placement across the fleet
//	mmbench serve [flags]                run the benchmark HTTP service
//	mmbench loadgen [flags]              drive a live server with seeded load
//
// Run "mmbench <command> -h" for per-command flags.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"

	"mmbench"
	"mmbench/internal/engine"
	"mmbench/internal/obs"
	"mmbench/internal/precision"
	"mmbench/internal/report"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "list":
		err = cmdList()
	case "devices":
		err = cmdDevices()
	case "run":
		err = cmdRun(os.Args[2:])
	case "train":
		err = cmdTrain(os.Args[2:])
	case "repro":
		err = cmdRepro(os.Args[2:])
	case "sweep":
		err = cmdSweep(os.Args[2:])
	case "place":
		err = cmdPlace(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "loadgen":
		err = cmdLoadgen(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "mmbench: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mmbench:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `mmbench — end-to-end multi-modal DNN benchmark suite

Commands:
  list        list workloads, modalities and variants
  devices     list hardware profiles
  run         profile one workload variant on one device
  train       train a variant on synthetic data and report its metric
  repro       regenerate a table/figure of the paper (or "all")
  sweep       profile a variant across devices and batch sizes
  place       plan stage placement across the heterogeneous fleet
  serve       run the benchmark-as-a-service HTTP API
  loadgen     drive a live server with a seeded SLO-aware load`)
}

func cmdList() error {
	t := report.NewTable("MMBench workloads",
		"Workload", "Domain", "Task", "Size", "Modalities", "Variants")
	for _, w := range mmbench.Workloads() {
		t.AddRow(w.Name, w.Domain, w.Task, w.ModelSize,
			strings.Join(w.Modalities, ","), strings.Join(w.Variants, ","))
	}
	return t.WriteText(os.Stdout)
}

func cmdDevices() error {
	for _, d := range mmbench.Devices() {
		fmt.Println(d)
	}
	return nil
}

// computeWorkersFlag registers the -compute-workers flag shared by every
// command that executes eager kernels.
func computeWorkersFlag(fs *flag.FlagSet) *int {
	return fs.Int("compute-workers", 0,
		"compute-engine workers per eager run, shared by its kernels and, above 1, its overlapping encoder branches (0 = auto: GOMAXPROCS split across job workers)")
}

// precisionFlag registers the -precision flag shared by every command
// that executes (or models) network stages.
func precisionFlag(fs *flag.FlagSet) *string {
	return fs.String("precision", "",
		"per-stage storage-precision policy: f32|f16|i8, or stage=precision assignments over encoder[:modality], fusion, head (e.g. head=i8,fusion=f16); empty = all f32")
}

// validatePrecision rejects unparseable policies at flag time so the
// error names the flag instead of surfacing later from a job worker.
func validatePrecision(pol string) error {
	if _, err := precision.ParsePolicy(pol); err != nil {
		return fmt.Errorf("bad -precision: %w", err)
	}
	return nil
}

// computeWorkerBudget resolves the per-job compute worker count. A
// positive request wins; otherwise the budget is GOMAXPROCS divided by
// the command's job-level workers, clamped to at least 1 — without the
// clamp, more job workers than CPUs floors the division to 0, and
// engine worker count 0 means "auto = full GOMAXPROCS" per job: the
// exact oversubscription the auto mode exists to prevent.
func computeWorkerBudget(requested, jobWorkers int) int {
	if requested > 0 {
		return requested
	}
	if jobWorkers < 1 {
		jobWorkers = 1
	}
	w := runtime.GOMAXPROCS(0) / jobWorkers
	if w < 1 {
		w = 1
	}
	return w
}

// configureCompute sets the default compute engine's worker count so
// scheduler parallelism × kernel parallelism never oversubscribes the
// machine. Worker count never changes results.
func configureCompute(computeWorkers, jobWorkers int) {
	engine.SetDefaultWorkers(computeWorkerBudget(computeWorkers, jobWorkers))
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	workload := fs.String("workload", "avmnist", "workload name (see list)")
	variant := fs.String("variant", "", "fusion method or uni:<modality> (default: workload's first fusion)")
	dev := fs.String("device", "2080ti", "device profile: 2080ti, nano or orin")
	batch := fs.Int("batch", 32, "batch size")
	paper := fs.Bool("paper", true, "use the paper-scale profile flavour")
	eager := fs.Bool("eager", false, "execute real numerics instead of the analytic abstraction")
	format := fs.String("format", "text", "output format: text, csv or json")
	computeWorkers := computeWorkersFlag(fs)
	precPolicy := precisionFlag(fs)
	seed := fs.Int64("seed", 0, "eager-mode data seed (0 = suite default)")
	traceOut := traceOutFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := validatePrecision(*precPolicy); err != nil {
		return err
	}
	if *traceOut != "" && !*eager {
		return fmt.Errorf("-trace-out requires -eager: analytic runs execute no kernels to time")
	}
	configureCompute(*computeWorkers, 1)
	cfg := mmbench.RunConfig{
		Workload:   *workload,
		Variant:    *variant,
		Device:     *dev,
		BatchSize:  *batch,
		PaperScale: *paper,
		Eager:      *eager,
		Seed:       *seed,
		Precision:  *precPolicy,
	}
	if *traceOut == "" {
		rep, err := mmbench.Run(cfg)
		if err != nil {
			return err
		}
		return renderReport(rep, *format)
	}
	prof := obs.NewProfiler()
	prof.CaptureEngineTasks()
	rep, stageMs, err := mmbench.RunWithProfiler(cfg, prof)
	if err != nil {
		prof.Finish()
		return err
	}
	if err := writeChromeTrace(*traceOut, prof.Finish()); err != nil {
		return err
	}
	if err := renderReport(rep, *format); err != nil {
		return err
	}
	printStageLatency(stageMs)
	return nil
}

// traceOutFlag registers the -trace-out flag shared by run and train.
func traceOutFlag(fs *flag.FlagSet) *string {
	return fs.String("trace-out", "",
		"write a Chrome trace-event JSON file of the measured eager execution (open in Perfetto or chrome://tracing); run requires -eager")
}

// writeChromeTrace exports a sealed profile to path.
func writeChromeTrace(path string, pr *obs.Profile) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pr.WriteChromeTrace(f); err != nil {
		f.Close()
		return fmt.Errorf("writing trace %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "mmbench: wrote trace with %d spans to %s\n",
		len(pr.Spans)+len(pr.EngineSpans), path)
	return nil
}

// printStageLatency renders the measured per-stage wall times beside
// the (modeled) report tables.
func printStageLatency(stageMs map[string]float64) {
	if len(stageMs) == 0 {
		return
	}
	stages := make([]string, 0, len(stageMs))
	for stage := range stageMs {
		stages = append(stages, stage)
	}
	sort.Strings(stages)
	fmt.Println("Measured stage wall time (eager):")
	for _, stage := range stages {
		fmt.Printf("  %-9s %.3f ms\n", stage, stageMs[stage])
	}
}

func renderReport(r *mmbench.Report, format string) error {
	summary := report.NewTable(
		fmt.Sprintf("%s/%s on %s (batch %d)", r.Workload, r.Variant, r.Device, r.Batch),
		"Latency (ms)", "GPU (ms)", "Host (ms)", "Transfer (ms)", "CPU+Runtime", "Kernels")
	summary.AddRow(report.Ms(r.LatencySeconds), report.Ms(r.GPUSeconds), report.Ms(r.HostSeconds),
		report.Ms(r.TransferSeconds), report.Pct(r.CPUShare), fmt.Sprint(r.Kernels))

	stages := report.NewTable("Per-stage characterization",
		"Stage", "Time (ms)", "DRAM_UTI", "GPU_OCU", "GLD_EFF", "GST_EFF", "IPC")
	for _, s := range r.Stages {
		stages.AddRow(s.Stage, report.Ms(s.Seconds), report.F(s.DRAMUtil),
			report.F(s.Occupancy), report.F(s.GldEff), report.F(s.GstEff), report.F(s.IPC))
	}

	classes := report.NewTable("Kernel class breakdown", append([]string{"Stage"}, mmbench.KernelClasses()...)...)
	for _, stage := range []string{"encoder", "fusion", "head"} {
		row := []string{stage}
		for _, c := range mmbench.KernelClasses() {
			row = append(row, report.Pct(r.KernelClassShares[stage][c]))
		}
		classes.AddRow(row...)
	}

	mem := report.NewTable("Peak memory (MB)", "Model", "Dataset", "Intermediate")
	mem.AddRow(report.F(r.Memory.Model), report.F(r.Memory.Dataset), report.F(r.Memory.Intermediate))

	tables := []*report.Table{summary, stages, classes, mem}
	if r.Precision != "" {
		// Only mixed-precision runs add this table, so default output
		// stays byte-identical to the pre-mixed-precision CLI.
		prec := report.NewTable("Mixed precision",
			"Policy", "Max |err| vs f32", "Mean |err| vs f32")
		errMax, errMean := "-", "-"
		if r.OutputErrMax != 0 || r.OutputErrMean != 0 {
			errMax, errMean = report.F(r.OutputErrMax), report.F(r.OutputErrMean)
		}
		prec.AddRow(r.Precision, errMax, errMean)
		prec.Note = "error columns are measured only for -eager runs (analytic runs model the precision's kernel costs without numerics)"
		tables = append(tables, prec)
	}

	return report.Render(os.Stdout, format, tables...)
}

func cmdTrain(args []string) error {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	workload := fs.String("workload", "avmnist", "workload name")
	variant := fs.String("variant", "", "fusion method or uni:<modality>")
	epochs := fs.Int("epochs", 0, "training epochs (0 = suite default)")
	lr := fs.Float64("lr", 0, "learning rate (0 = suite default)")
	seed := fs.Int64("seed", 1, "data seed")
	computeWorkers := computeWorkersFlag(fs)
	precPolicy := precisionFlag(fs)
	traceOut := traceOutFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := validatePrecision(*precPolicy); err != nil {
		return err
	}
	configureCompute(*computeWorkers, 1)
	var prof *obs.Profiler
	if *traceOut != "" {
		prof = obs.NewProfiler()
		prof.CaptureEngineTasks()
	}
	res, err := mmbench.Train(mmbench.TrainConfig{
		Workload:  *workload,
		Variant:   *variant,
		Epochs:    *epochs,
		LR:        *lr,
		Seed:      *seed,
		Precision: *precPolicy,
		Profiler:  prof,
	})
	if err != nil {
		if prof != nil {
			prof.Finish()
		}
		return err
	}
	if prof != nil {
		if err := writeChromeTrace(*traceOut, prof.Finish()); err != nil {
			return err
		}
	}
	fmt.Printf("%s/%s: %s = %.3f (final loss %.3f)\n",
		res.Workload, res.Variant, res.MetricName, res.Metric, res.FinalLoss)
	return nil
}

func cmdRepro(args []string) error {
	fs := flag.NewFlagSet("repro", flag.ExitOnError)
	quick := fs.Bool("quick", false, "shrink training runs and sweeps")
	format := fs.String("format", "text", "output format: text, csv or json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ids := fs.Args()
	if len(ids) == 0 {
		return fmt.Errorf("repro needs experiment ids (one of %v, or all)", mmbench.ExperimentIDs())
	}
	if len(ids) == 1 && ids[0] == "all" {
		ids = mmbench.ExperimentIDs()
	}
	for _, id := range ids {
		tables, err := mmbench.Experiment(id, *quick)
		if err != nil {
			return err
		}
		if err := report.Render(os.Stdout, *format, tables...); err != nil {
			return err
		}
	}
	return nil
}
