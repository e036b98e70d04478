package serve

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"mmbench/internal/faultinject"
	"mmbench/internal/jobs"
)

// quarantine tracks kernel panics per workload-config fingerprint (the
// cache key minus the seed). A config whose runs panic repeatedly is
// almost certainly deterministic poison — the model is a pure function
// of the config — so after threshold panics the config is quarantined:
// requests for it fail immediately with 422 and the stored panic
// summary instead of re-crashing a worker on every retry.
type quarantine struct {
	threshold int

	mu      sync.Mutex
	entries map[string]*quarantineEntry
	// quarantined counts configs that crossed the threshold (monotonic;
	// distinct configs, not panics — panics are the pool's counter).
	quarantined int64
}

type quarantineEntry struct {
	panics  int
	summary string // most recent panic value, rendered
}

func newQuarantine(threshold int) *quarantine {
	if threshold <= 0 {
		threshold = 3
	}
	return &quarantine{threshold: threshold, entries: make(map[string]*quarantineEntry)}
}

// blocked reports whether the fingerprint is quarantined, returning the
// stored panic summary for the 422 body.
func (q *quarantine) blocked(fp string) (summary string, bad bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	e := q.entries[fp]
	if e == nil || e.panics < q.threshold {
		return "", false
	}
	return e.summary, true
}

// recordPanic counts one panic against the fingerprint and reports
// whether this panic pushed the config over the threshold.
func (q *quarantine) recordPanic(fp, summary string) (nowQuarantined bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	e := q.entries[fp]
	if e == nil {
		e = &quarantineEntry{}
		q.entries[fp] = e
	}
	e.panics++
	e.summary = summary
	if e.panics == q.threshold {
		q.quarantined++
		return true
	}
	return false
}

// count returns how many configs are currently quarantined.
func (q *quarantine) count() int64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.quarantined
}

// costEstimator predicts a run's wall-clock cost for admission control.
// The anchor is the analytic device model: every successful run reports
// a modeled end-to-end latency, and the estimator keeps (a) the modeled
// latency per fingerprint and (b) a global EWMA of observed-wall over
// modeled-latency. The product — modeled × calibration — maps device-
// model seconds onto this host's serving time, so admission can reject
// work that cannot finish before its deadline. Unknown fingerprints
// estimate 0 (admit): shedding must never be based on a guess.
type costEstimator struct {
	mu      sync.Mutex
	ratio   float64 // EWMA of observed/modeled; 0 until the first sample
	modeled map[string]float64
}

// estimatorMaxEntries bounds the per-fingerprint table; beyond it new
// fingerprints simply go unestimated (admit), which is the safe side.
const estimatorMaxEntries = 4096

// ewmaAlpha weights the newest calibration sample; 0.2 smooths over the
// last ~10 runs while still tracking load shifts within seconds.
const ewmaAlpha = 0.2

func newCostEstimator() *costEstimator {
	return &costEstimator{modeled: make(map[string]float64)}
}

func (ce *costEstimator) estimate(fp string) time.Duration {
	ce.mu.Lock()
	defer ce.mu.Unlock()
	m, ok := ce.modeled[fp]
	if !ok || ce.ratio == 0 {
		return 0
	}
	return time.Duration(m * ce.ratio * float64(time.Second))
}

func (ce *costEstimator) observe(fp string, modeledSeconds float64, observed time.Duration) {
	if modeledSeconds <= 0 || observed <= 0 {
		return
	}
	sample := observed.Seconds() / modeledSeconds
	ce.mu.Lock()
	defer ce.mu.Unlock()
	if ce.ratio == 0 {
		ce.ratio = sample
	} else {
		ce.ratio += ewmaAlpha * (sample - ce.ratio)
	}
	if _, ok := ce.modeled[fp]; ok || len(ce.modeled) < estimatorMaxEntries {
		ce.modeled[fp] = modeledSeconds
	}
}

// requestDeadline resolves a request's completion deadline: the client's
// X-Deadline-Ms budget capped by the server's default (a client may ask
// for less time than the server allows, never more). A zero result
// means no deadline (server default unset and no header).
func (s *Server) requestDeadline(r *http.Request) (time.Time, error) {
	budget := s.defaultDeadline
	if h := r.Header.Get("X-Deadline-Ms"); h != "" {
		ms, err := strconv.ParseInt(h, 10, 64)
		if err != nil || ms <= 0 {
			return time.Time{}, fmt.Errorf("invalid X-Deadline-Ms %q: want a positive integer of milliseconds", h)
		}
		// A budget past the largest Duration (≈ 292 years) is clamped
		// to it rather than wrapped negative.
		d := time.Duration(math.MaxInt64)
		if ms <= int64(d/time.Millisecond) {
			d = time.Duration(ms) * time.Millisecond
		}
		if budget == 0 || d < budget {
			budget = d
		}
	}
	if budget == 0 {
		return time.Time{}, nil
	}
	return time.Now().Add(budget), nil
}

// retryAfterSeconds advises when a shed client should retry: roughly
// one queue drain at the current depth, at least a second.
func (s *Server) retryAfterSeconds() int {
	depth := s.pool.QueueDepth()
	sec := 1 + depth/max(1, s.workers)
	return sec
}

// writeShed maps a shedding error onto the HTTP contract: infeasible
// deadlines (already expired, or estimated cost that cannot fit) are
// the client's budget problem → 429; overload and shutdown are the
// server's → 503. Every shed response carries Retry-After.
func (s *Server) writeShed(w http.ResponseWriter, r *http.Request, err error) {
	w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
	status := http.StatusServiceUnavailable
	if errors.Is(err, jobs.ErrDeadline) || errors.Is(err, jobs.ErrWontFinish) {
		status = http.StatusTooManyRequests
	}
	s.writeErr(w, r, status, "%v", err)
}

// ResilienceStats is the `resilience` block of /v1/stats: the
// scheduler's shed/cancel/panic counters plus the serve-layer
// quarantine registry and (when enabled) fault-injection activity.
type ResilienceStats struct {
	jobs.Resilience
	// QuarantinedConfigs counts workload-config fingerprints quarantined
	// after repeated panics (distinct configs, monotonic).
	QuarantinedConfigs int64 `json:"quarantined_configs"`
	// FaultsInjected counts fault-injection rule firings by site; omitted
	// while injection is disabled.
	FaultsInjected map[string]int64 `json:"faults_injected,omitempty"`
}

func (s *Server) resilienceStats() ResilienceStats {
	rs := ResilienceStats{
		Resilience:         s.pool.Resilience(),
		QuarantinedConfigs: s.quar.count(),
	}
	if faultinject.Enabled() {
		rs.FaultsInjected = make(map[string]int64)
		for _, site := range faultinject.Sites() {
			rs.FaultsInjected[string(site)] = faultinject.Fired(site)
		}
	}
	return rs
}
