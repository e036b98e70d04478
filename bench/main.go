// Command bench is the repository's end-to-end benchmark: four workloads
// driven against the system from outside, reporting end-to-end metrics
// from an untraced run and per-layer metrics plus a span file from a
// traced one. See README.md in this directory; run it from the
// repository root through bench/run.sh.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"

	"mmbench/internal/gemm"
)

func main() {
	var (
		name      = flag.String("workload", "", "run this one workload in this process (default: all four, each in a fresh subprocess)")
		seed      = flag.Uint64("seed", 1, "workload seed: equal seeds generate equal request lists")
		seconds   = flag.Int("seconds", 25, "length of the measured window")
		trace     = flag.Int("trace", 0, "1 = traced run: per-layer metrics and a span file instead of end-to-end metrics")
		selfcheck = flag.Bool("selfcheck", false, "run the end-to-end pass twice and fail if any metric moves by more than its bound")
		short     = flag.Bool("short", false, "smoke test: 1 s windows, one set-up, bounds meaningless")
		update    = flag.Bool("update-golden", false, "rewrite bench/golden.json from a standalone run of every float32 config, then exit")
	)
	flag.Parse()
	if *short {
		*seconds = 1
	}
	if flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: bench [-workload W] [-seed N] [-seconds S] [-trace 0|1] [-selfcheck] [-short]")
		os.Exit(2)
	}

	if *update {
		if err := updateGolden(); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		return
	}

	if *name != "" {
		w := workloadByName(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			os.Exit(2)
		}
		res, err := run(options{w: w, seed: *seed, seconds: *seconds, trace: *trace == 1, short: *short})
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		fmt.Println(string(line))
		if !res.Correct {
			os.Exit(1)
		}
		return
	}

	args := []string{"-seed", strconv.FormatUint(*seed, 10), "-seconds", strconv.Itoa(*seconds), "-trace", strconv.Itoa(*trace)}
	if *short {
		args = append(args, "-short")
	}
	first, err := runAll(args)
	if err == nil && *selfcheck {
		var second map[string]*result
		if second, err = runAll(args); err == nil {
			err = compare(first, second)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// header identifies the machine and build a results file came from.
type header struct {
	GitSHA     string   `json:"git_sha"`
	Go         string   `json:"go"`
	NumCPU     int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	CPU        string   `json:"cpu"`
	GemmKernel string   `json:"gemm_kernel"`
	Args       []string `json:"args"`
}

func newHeader(args []string) header {
	h := header{
		GitSHA: "unknown", Go: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: procs(),
		CPU: "unknown", GemmKernel: gemm.KernelName(), Args: args,
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h.GitSHA = strings.TrimSpace(string(out))
	}
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(info), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// runAll runs every workload in a fresh subprocess of this binary — the
// engine, pack and stage counters are process-global — echoes its
// output, and writes the collected results to bench/out/results.json.
func runAll(args []string) (map[string]*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	results := make(map[string]*result)
	failed := false
	for _, w := range workloadList {
		var out bytes.Buffer
		cmd := exec.Command(exe, append([]string{"-workload", w.name}, args...)...)
		cmd.Stdout = io.MultiWriter(os.Stdout, &out)
		cmd.Stderr = os.Stderr
		runErr := cmd.Run()
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		res := new(result)
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), res); err != nil {
			return nil, fmt.Errorf("%s printed no result (%v): %w", w.name, runErr, err)
		}
		results[w.name] = res
		failed = failed || runErr != nil || !res.Correct
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	enc, err := json.MarshalIndent(map[string]any{"header": newHeader(args), "workloads": results}, "", "  ")
	if err != nil {
		return nil, err
	}
	path := filepath.Join(outDir, "results.json")
	if err := os.WriteFile(path, append(enc, '\n'), 0o644); err != nil {
		return nil, err
	}
	fmt.Println("results written to", path)
	if failed {
		return nil, fmt.Errorf("a workload failed its output checks")
	}
	return results, nil
}

// compare prints the per-metric spread between two passes over the same
// code and seed, and fails when an end-to-end metric moved by more than
// the bound BENCHMARK.json gives it.
func compare(a, b map[string]*result) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("selfcheck needs the bounds: %w", err)
	}
	var decl struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	fmt.Printf("%-20s %-18s %14s %14s %8s %8s\n", "workload", "metric", "first", "second", "spread", "bound")
	over := 0
	for _, w := range workloadList {
		for _, d := range decl.EndToEnd {
			x, y := a[w.name].Metrics[d.Name].Value, b[w.name].Metrics[d.Name].Value
			spread := ratio(math.Abs(x-y), math.Min(x, y))
			flag := ""
			if spread > d.Bound {
				flag = "  OVER"
				over++
			}
			fmt.Printf("%-20s %-18s %14.6g %14.6g %7.1f%% %7.1f%%%s\n", w.name, d.Name, x, y, 100*spread, 100*d.Bound, flag)
		}
	}
	if over > 0 {
		return fmt.Errorf("selfcheck: %d metrics moved by more than their bound between two runs of the same code", over)
	}
	return nil
}
