package core

import (
	"testing"

	"mmbench/internal/device"
)

// A variant's device × batch grid misses the result cache cell by cell
// but resolves one shared network: at most one build (none if an
// earlier test already touched the variant), every other cell a hit.
func TestProfileRunGridSharesOneNetwork(t *testing.T) {
	before := profModels.Stats()
	cells := 0
	for _, dev := range []*device.Profile{device.RTX2080Ti(), device.JetsonNano()} {
		for _, batch := range []int{3, 5} { // sizes no experiment driver uses
			if _, err := profileRun("avmnist", "glu", dev, batch); err != nil {
				t.Fatal(err)
			}
			cells++
		}
	}
	after := profModels.Stats()
	builds := after.Executions - before.Executions
	hits := after.Hits - before.Hits
	if builds > 1 || builds+hits != uint64(cells) {
		t.Fatalf("%d cells cost %d builds and %d store hits, want ≤1 build and the rest hits", cells, builds, hits)
	}
}
