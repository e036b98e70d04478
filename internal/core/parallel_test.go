package core

import (
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"mmbench/internal/device"
)

// poolFrames counts stack frames of package jobs across every live
// goroutine: nonzero means a worker or group goroutine is still running.
// A goroutine that has signalled its pool's WaitGroup — so Shutdown may
// already have returned — still shows its frames until it returns, so
// the count is retaken for up to a second before it is believed.
func poolFrames() int {
	deadline := time.Now().Add(time.Second)
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n == len(buf) {
			buf = make([]byte, 2*len(buf))
			continue
		}
		frames := strings.Count(string(buf[:n]), "mmbench/internal/jobs.")
		if frames == 0 || time.Now().After(deadline) {
			return frames
		}
		time.Sleep(time.Millisecond)
	}
}

// profileGrid returns every cell in grid order, each bitwise the result
// of a standalone BuildAndRun of that cell, and a failing cell fails the
// grid by its index once every cell has finished. Either way the call
// leaves none of its pool's goroutines running.
func TestProfileGridMatchesStandaloneRuns(t *testing.T) {
	grid := []profileCfg{
		{"avmnist", "glu", device.RTX2080Ti(), 3},
		{"push", "transformer", device.JetsonNano(), 5},
		{"avmnist", "glu", device.JetsonOrin(), 3},
		{"avmnist", "uni:image", device.JetsonNano(), 7},
	}
	rs, err := profileGrid(grid)
	if err != nil {
		t.Fatal(err)
	}
	if n := poolFrames(); n != 0 {
		t.Fatalf("%d jobs frames still running after profileGrid returned", n)
	}
	if len(rs) != len(grid) {
		t.Fatalf("got %d results for %d cells", len(rs), len(grid))
	}
	for i, c := range grid {
		want, err := BuildAndRun(c.workload, c.variant, true, RunOptions{Device: c.dev, BatchSize: c.batch})
		if err != nil {
			t.Fatal(err)
		}
		got := rs[i]
		if !reflect.DeepEqual(got.Trace, want.Trace) ||
			math.Float64bits(got.Latency) != math.Float64bits(want.Latency) ||
			got.Memory != want.Memory {
			t.Errorf("cell %d (%s/%s on %s, batch %d) differs from its standalone run",
				i, c.workload, c.variant, c.dev.Name, c.batch)
		}
	}

	bad := []profileCfg{grid[0], {"avmnist", "no-such-variant", device.RTX2080Ti(), 32}, grid[1]}
	if _, err := profileGrid(bad); err == nil ||
		!strings.Contains(err.Error(), "job 2/3") || !strings.Contains(err.Error(), "no-such-variant") {
		t.Fatalf("grid with an unknown variant at index 1: err = %v, want it named as job 2/3", err)
	}
	if n := poolFrames(); n != 0 {
		t.Fatalf("%d jobs frames still running after a failed profileGrid returned", n)
	}
}
