package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"mmbench/internal/engine"
	"mmbench/internal/precision"
	"mmbench/internal/workloads"
)

// RunMerged's contract: every member of a merged cross-request batch
// gets bitwise the output, error measurements, trace, memory profile and
// modeled latency it would get running alone — across worker counts,
// both branch schedules and all storage-precision policies. The member
// specs use distinct batch sizes and seeds so the scatter step is
// position-sensitive: any routing mistake shows up as a bit difference.
func TestRunMergedBitwiseIdentity(t *testing.T) {
	members := []MemberSpec{{BatchSize: 2, Seed: 11}, {BatchSize: 4, Seed: 7}, {BatchSize: 3, Seed: 3}}
	for _, policy := range []string{"", "f16", "i8"} {
		pol, err := precision.ParsePolicy(policy)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4, 16} {
			for _, seq := range []bool{false, true} {
				name := fmt.Sprintf("pol=%q/workers=%d/seq=%v", policy, workers, seq)
				n, err := workloads.Build("avmnist", "concat", false, 42)
				if err != nil {
					t.Fatal(err)
				}
				opts := RunOptions{
					Eager:              true,
					Engine:             engine.New(workers),
					SequentialBranches: seq,
					Precision:          pol,
				}
				merged, err := RunMerged(n, opts, members)
				if err != nil {
					t.Fatalf("%s: RunMerged: %v", name, err)
				}
				if len(merged) != len(members) {
					t.Fatalf("%s: %d results for %d members", name, len(merged), len(members))
				}
				for i, m := range members {
					solo := opts
					solo.BatchSize, solo.Seed = m.BatchSize, m.Seed
					want, err := Run(n, solo)
					if err != nil {
						t.Fatalf("%s[%d]: standalone Run: %v", name, i, err)
					}
					got := merged[i]
					gd, wd := got.Output.Value.Data(), want.Output.Value.Data()
					if len(gd) != len(wd) {
						t.Fatalf("%s[%d]: output size %d != %d", name, i, len(gd), len(wd))
					}
					for j := range gd {
						if gd[j] != wd[j] {
							t.Fatalf("%s[%d]: output bit divergence at [%d]: %g != %g", name, i, j, gd[j], wd[j])
						}
					}
					if got.OutputErrMax != want.OutputErrMax || got.OutputErrMean != want.OutputErrMean {
						t.Errorf("%s[%d]: error stats (%g,%g) != standalone (%g,%g)",
							name, i, got.OutputErrMax, got.OutputErrMean, want.OutputErrMax, want.OutputErrMean)
					}
					gt, err := json.Marshal(got.Trace)
					if err != nil {
						t.Fatal(err)
					}
					wt, err := json.Marshal(want.Trace)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(gt, wt) {
						t.Errorf("%s[%d]: trace diverges from standalone run", name, i)
					}
					if got.Latency != want.Latency {
						t.Errorf("%s[%d]: latency %g != %g", name, i, got.Latency, want.Latency)
					}
					if got.Memory != want.Memory {
						t.Errorf("%s[%d]: memory profile diverges", name, i)
					}
				}
			}
		}
	}
}

// The attention-fusion variant routes the merged batch through the fused
// streaming-softmax kernel in the fusion stage — the per-batch-index i8
// scale path.
func TestRunMergedAttentionFusion(t *testing.T) {
	members := []MemberSpec{{BatchSize: 3, Seed: 5}, {BatchSize: 2, Seed: 9}}
	for _, policy := range []string{"", "i8"} {
		pol, err := precision.ParsePolicy(policy)
		if err != nil {
			t.Fatal(err)
		}
		n, err := workloads.Build("avmnist", "attention", false, 42)
		if err != nil {
			t.Fatal(err)
		}
		opts := RunOptions{Eager: true, Engine: engine.New(4), Precision: pol}
		merged, err := RunMerged(n, opts, members)
		if err != nil {
			t.Fatal(err)
		}
		for i, m := range members {
			solo := opts
			solo.BatchSize, solo.Seed = m.BatchSize, m.Seed
			want, err := Run(n, solo)
			if err != nil {
				t.Fatal(err)
			}
			gd, wd := merged[i].Output.Value.Data(), want.Output.Value.Data()
			for j := range gd {
				if gd[j] != wd[j] {
					t.Fatalf("pol=%q member %d: bit divergence at [%d]", policy, i, j)
				}
			}
		}
	}
}

// A merged run rejects analytic execution and surfaces member defaults
// (batch 32, seed 1) the same way RunOptions does.
func TestRunMergedValidation(t *testing.T) {
	n, err := workloads.Build("avmnist", "concat", false, 42)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunMerged(n, RunOptions{}, []MemberSpec{{BatchSize: 2}}); err == nil {
		t.Error("analytic RunMerged did not error")
	}
	if _, err := RunMerged(n, RunOptions{Eager: true}, nil); err == nil {
		t.Error("empty member list did not error")
	}
	res, err := RunMerged(n, RunOptions{Eager: true}, []MemberSpec{{}, {BatchSize: 2, Seed: 2}})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(n, RunOptions{Eager: true, BatchSize: 32, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	gd, wd := res[0].Output.Value.Data(), want.Output.Value.Data()
	if len(gd) != len(wd) {
		t.Fatalf("defaulted member output size %d != %d", len(gd), len(wd))
	}
	for j := range gd {
		if gd[j] != wd[j] {
			t.Fatalf("defaulted member diverges at [%d]", j)
		}
	}
}
