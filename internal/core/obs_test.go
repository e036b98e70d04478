package core

import (
	"encoding/json"
	"testing"
	"time"

	"mmbench/internal/engine"
	"mmbench/internal/obs"
	"mmbench/internal/workloads"
)

// TestProfilerIsPureObserver is the observability layer's central
// invariant: attaching a profiler changes nothing observable about a
// run — output tensor bits, recorded trace, memory profile, which stage
// walls it reports — at any worker count, so under either branch schedule.
// The stage walls need no profiler: an unprofiled eager run times
// encoder, fusion and head at the forward's stage boundaries, so each is
// positive and together they fit inside the RunMerged call.
func TestProfilerIsPureObserver(t *testing.T) {
	stages := []string{"encoder", "fusion", "head"}
	for _, workers := range []int{1, 4, 16} {
		// One worker runs the encoder branches one after another, more fork them.
		schedule := map[bool]string{false: "parallel", true: "sequential"}[workers == 1]
		t.Run(schedule+"/"+itoa(workers), func(t *testing.T) {
			run := func(prof *obs.Profiler) (*RunResult, time.Duration) {
				eng := engine.New(workers)
				defer eng.Close()
				n, err := workloads.Build("avmnist", "concat", false, workloads.WeightSeed)
				if err != nil {
					t.Fatal(err)
				}
				start := time.Now()
				results, err := RunMerged(n, RunOptions{Eager: true, Engine: eng, Profiler: prof},
					[]MemberSpec{{BatchSize: 4}})
				wall := time.Since(start)
				if err != nil {
					t.Fatal(err)
				}
				return results[0], wall
			}
			plain, wall := run(nil)
			var sum float64
			for _, stage := range stages {
				if plain.StageSeconds[stage] <= 0 {
					t.Errorf("unprofiled stage %q wall = %v, want > 0", stage, plain.StageSeconds[stage])
				}
				sum += plain.StageSeconds[stage]
			}
			if len(plain.StageSeconds) != len(stages) || sum > wall.Seconds() {
				t.Errorf("unprofiled stage walls %v (sum %v s) exceed the %v RunMerged call", plain.StageSeconds, sum, wall)
			}
			prof := obs.NewProfiler()
			profiled, _ := run(prof)

			// Outputs bitwise identical.
			pd, qd := plain.Output.Value.Data(), profiled.Output.Value.Data()
			if len(pd) != len(qd) {
				t.Fatalf("output sizes differ: %d vs %d", len(pd), len(qd))
			}
			for i := range pd {
				if pd[i] != qd[i] {
					t.Fatalf("output[%d] differs: %v vs %v", i, pd[i], qd[i])
				}
			}
			// Traces identical: same kernel sequence, same modeled times.
			pj, err := json.Marshal(plain.Trace)
			if err != nil {
				t.Fatal(err)
			}
			qj, err := json.Marshal(profiled.Trace)
			if err != nil {
				t.Fatal(err)
			}
			if string(pj) != string(qj) {
				t.Fatal("profiled trace differs from unprofiled trace")
			}
			if plain.Latency != profiled.Latency || plain.Memory != profiled.Memory {
				t.Fatal("profiled latency/memory differ")
			}

			// The same stage keys, and the profiler recorded spans.
			if len(profiled.StageSeconds) != len(stages) {
				t.Fatalf("profiled stage walls %v, want the keys %v", profiled.StageSeconds, stages)
			}
			for _, stage := range stages {
				if profiled.StageSeconds[stage] <= 0 {
					t.Errorf("profiled stage %q wall = %v, want > 0", stage, profiled.StageSeconds[stage])
				}
			}
			pr := prof.Finish()
			if len(pr.Spans) == 0 {
				t.Fatal("profiled run recorded no spans")
			}
			// avmnist has image and audio encoder branches: both tracks
			// must appear.
			tracks := map[string]bool{}
			for i := range pr.Spans {
				tracks[pr.Spans[i].TrackName()] = true
			}
			if !tracks["branch:image"] || !tracks["branch:audio"] {
				t.Errorf("missing branch tracks in %v", tracks)
			}
		})
	}
}

// TestProfiledReportsAreByteIdentical locks the out-of-band contract:
// stage latencies ride beside the RunResult, never inside the trace or
// report fields, so profiled and unprofiled runs serialize identically.
func TestProfiledReportsAreByteIdentical(t *testing.T) {
	run := func(prof *obs.Profiler) []byte {
		res, err := BuildAndRun("avmnist", "concat", false, RunOptions{
			Eager: true, BatchSize: 2, Profiler: prof,
		})
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(struct {
			Trace   any
			Memory  any
			Latency float64
		}{res.Trace, res.Memory, res.Latency})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	plain := run(nil)
	profiled := run(obs.NewProfiler())
	if string(plain) != string(profiled) {
		t.Fatal("profiling changed the serialized run result")
	}
}

// TestAnalyticRunIgnoresProfiler: analytic runs execute no kernels, so
// a profiler attached there stays empty instead of recording modeled
// events as measured ones.
func TestAnalyticRunIgnoresProfiler(t *testing.T) {
	prof := obs.NewProfiler()
	res, err := BuildAndRun("avmnist", "concat", true, RunOptions{Profiler: prof})
	if err != nil {
		t.Fatal(err)
	}
	if res.StageSeconds != nil {
		t.Fatalf("analytic run reported measured stages: %v", res.StageSeconds)
	}
	if pr := prof.Finish(); len(pr.Spans) != 0 {
		t.Fatalf("analytic run recorded %d spans", len(pr.Spans))
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b []byte
	for v > 0 {
		b = append([]byte{byte('0' + v%10)}, b...)
		v /= 10
	}
	return string(b)
}
