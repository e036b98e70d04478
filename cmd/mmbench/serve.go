package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"mmbench/internal/faultinject"
	"mmbench/internal/serve"
)

// cmdServe runs the benchmark service: the JSON API over the cached
// runner and the worker-pool scheduler.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	workers := fs.Int("workers", runtime.NumCPU(), "scheduler worker count")
	cacheMB := fs.Int("cache-mb", 64, "result cache budget in MiB")
	computeWorkers := computeWorkersFlag(fs)
	precPolicy := precisionFlag(fs)
	pprofFlag := fs.Bool("pprof", false,
		"mount net/http/pprof under /debug/pprof/ (CPU/heap/goroutine profiles; off by default)")
	deadline := fs.Duration("deadline", 0,
		"default completion deadline for /v1/run requests (0 = none); clients may lower it per request via X-Deadline-Ms, never raise it")
	quarThreshold := fs.Int("quarantine-threshold", 3,
		"panics per workload-config fingerprint before the config is quarantined (422)")
	maxBatch := fs.Int("max-batch", 256,
		"continuous batching: max samples one merged cross-request forward may carry (0 = default, negative = disable batching)")
	faults := fs.String("faults", "",
		"fault-injection plan, e.g. 'engine.chunk=panic/every=100,jobs.admit=fail/every=10' (testing only; also settable via MMBENCH_FAULTS)")
	writeTimeout := fs.Duration("write-timeout", 5*time.Minute,
		"HTTP write deadline per request; must cover the longest synchronous /v1/run (long eager runs should go through /v1/sweep jobs instead)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := validatePrecision(*precPolicy); err != nil {
		return err
	}
	// Job workers and kernel workers share one CPU budget: with W
	// scheduler workers the auto setting gives each eager run
	// GOMAXPROCS/W compute workers. Above one, the run's encoder
	// branches overlap on them; at one they run one after another.
	configureCompute(*computeWorkers, *workers)

	if *faults != "" {
		if err := faultinject.Configure(*faults); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "mmbench: FAULT INJECTION ENABLED: %s\n", *faults)
	}

	s := serve.New(serve.Options{
		Workers:             *workers,
		CacheBytes:          int64(*cacheMB) << 20,
		DefaultPrecision:    *precPolicy,
		Pprof:               *pprofFlag,
		DefaultDeadline:     *deadline,
		QuarantineThreshold: *quarThreshold,
		MaxBatch:            *maxBatch,
	})
	// Slow or stalled clients must not pin handler goroutines forever:
	// bound header/body reads and idle keep-alives tightly. The write
	// deadline starts when the request is read, so it must cover a
	// synchronous eager run's whole compute time — it is a flag because
	// the right bound depends on the machine and workload scale.
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "mmbench: serving on http://%s (%d workers, %d MiB cache)\n",
		*addr, *workers, *cacheMB)

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(os.Stderr, "mmbench: shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		return err
	}
	return s.Close(shutdownCtx)
}
