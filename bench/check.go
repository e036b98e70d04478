package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"mmbench"
)

// goldenPath is where -update-golden writes; the harness runs from the
// repository root.
const goldenPath = "bench/golden.json"

// goldenJSON holds the committed SHA-256 of every float32 report the
// workloads can produce, so a change that alters any modeled statistic
// fails the benchmark even when it was meant to alter only speed.
//
//go:embed golden.json
var goldenJSON []byte

// replayEvery is the share of measured requests kept for the standalone
// replay check.
const replayEvery = 20

// maxFailureNotes bounds how many failure messages are kept for printing.
const maxFailureNotes = 8

// runResponse is the part of a /v1/run body the harness reads.
type runResponse struct {
	Report         *mmbench.Report    `json:"report"`
	StageLatencyMs map[string]float64 `json:"stage_latency_ms"`
}

// checker validates every output of a run and collects the sample that
// is replayed afterwards. Safe for concurrent use.
type checker struct {
	golden map[string]string

	mu sync.Mutex
	// passed remembers, per analytic config, the digest of a body that
	// went through the full checks: identical later bodies (cache hits)
	// pass on the digest alone.
	passed map[int][sha256.Size]byte
	// replays holds one kept request per distinct config: equal configs
	// are deterministic, so replaying one again would check nothing new.
	replays  []replayItem
	kept     map[string]bool
	notes    []string
	failures int
}

type replayItem struct {
	cfg    mmbench.RunConfig
	report []byte
}

func newChecker() (*checker, error) {
	c := &checker{passed: make(map[int][sha256.Size]byte), kept: make(map[string]bool)}
	if err := json.Unmarshal(goldenJSON, &c.golden); err != nil {
		return nil, fmt.Errorf("parsing golden.json: %w", err)
	}
	return c, nil
}

func (c *checker) fail(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failures++
	if len(c.notes) < maxFailureNotes {
		c.notes = append(c.notes, fmt.Sprintf(format, args...))
	}
}

// response checks one /v1/run reply to request n and reports whether it
// passed, plus the measured stage latencies of eager replies.
func (c *checker) response(o op, n, status int, body []byte) (map[string]float64, bool) {
	if status != 200 {
		c.fail("request %d: status %d: %.120s", n, status, body)
		return nil, false
	}
	var digest [sha256.Size]byte
	if !o.cfg.Eager {
		digest = sha256.Sum256(body)
		c.mu.Lock()
		seen, ok := c.passed[o.idx]
		c.mu.Unlock()
		if ok && seen == digest && n%replayEvery != 0 {
			return nil, true
		}
	}
	var resp runResponse
	if err := json.Unmarshal(body, &resp); err != nil || resp.Report == nil {
		c.fail("request %d: undecodable body: %v", n, err)
		return nil, false
	}
	if !c.report(o.cfg, n, resp.Report) {
		return nil, false
	}
	if !o.cfg.Eager {
		c.mu.Lock()
		c.passed[o.idx] = digest
		c.mu.Unlock()
	}
	return resp.StageLatencyMs, true
}

// report checks one report against the config that asked for it and,
// for float32 configs, against the committed digest; every replayEvery-th
// is kept for the replay check.
func (c *checker) report(cfg mmbench.RunConfig, n int, rep *mmbench.Report) bool {
	if rep.Workload != cfg.Workload || rep.Batch != cfg.BatchSize ||
		(cfg.Variant != "" && rep.Variant != cfg.Variant) {
		c.fail("request %d: asked %s/%s b%d, got %s/%s b%d", n,
			cfg.Workload, cfg.Variant, cfg.BatchSize, rep.Workload, rep.Variant, rep.Batch)
		return false
	}
	if rep.LatencySeconds <= 0 || rep.Kernels <= 0 {
		c.fail("request %d: report has latency %g s and %d kernels", n, rep.LatencySeconds, rep.Kernels)
		return false
	}
	enc, err := json.Marshal(rep)
	if err != nil {
		c.fail("request %d: re-encoding report: %v", n, err)
		return false
	}
	if rep.Precision == "" {
		key, got := goldenEntry(rep, enc)
		if want := c.golden[key]; got != want {
			c.fail("request %d: report %s has digest %s, golden.json has %q", n, key, got, want)
			return false
		}
	}
	if n%replayEvery == 0 {
		key := fmt.Sprintf("%+v", cfg)
		c.mu.Lock()
		if !c.kept[key] {
			c.kept[key] = true
			c.replays = append(c.replays, replayItem{cfg: cfg, report: enc})
		}
		c.mu.Unlock()
	}
	return true
}

// replay re-runs kept requests standalone through mmbench.Run until
// budget is spent and requires byte-identical report JSON: the
// per-member identity contract, checked against what the loaded server
// actually returned.
func (c *checker) replay(budget time.Duration) (done, kept int) {
	start := time.Now()
	for _, it := range c.replays {
		if done > 0 && time.Since(start) > budget {
			break
		}
		done++
		rep, err := mmbench.Run(it.cfg)
		if err != nil {
			c.fail("replay of %+v: %v", it.cfg, err)
			continue
		}
		if enc, _ := json.Marshal(rep); string(enc) != string(it.report) {
			c.fail("replay of %+v: standalone report differs from the served one", it.cfg)
		}
	}
	return done, len(c.replays)
}

// goldenEntry is the golden.json key and digest of a float32 report
// whose JSON encoding is enc. The key leaves out seed and mode: modeled
// statistics depend on neither.
func goldenEntry(rep *mmbench.Report, enc []byte) (key, digest string) {
	sum := sha256.Sum256(enc)
	return fmt.Sprintf("%s/%s/%s/b%d", rep.Workload, rep.Variant, rep.Device, rep.Batch), hex.EncodeToString(sum[:])
}

// updateGolden rewrites golden.json from a standalone run of every
// float32 config any workload can send.
func updateGolden() error {
	golden := make(map[string]string)
	for _, w := range workloadList {
		for _, cfg := range w.configs {
			rep, err := mmbench.Run(cfg)
			if err != nil {
				return fmt.Errorf("%+v: %w", cfg, err)
			}
			if rep.Precision != "" {
				continue
			}
			enc, err := json.Marshal(rep)
			if err != nil {
				return err
			}
			key, digest := goldenEntry(rep, enc)
			golden[key] = digest
		}
	}
	enc, err := json.MarshalIndent(golden, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath, append(enc, '\n'), 0o644)
}
