//go:build amd64 && !race

package train

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"mmbench/internal/engine"
	"mmbench/internal/gemm"
	"mmbench/internal/mmnet"
	"mmbench/internal/workloads"
)

// trainedDigests pins, for a few fixed-seed Fit steps of three small
// networks, the final loss's float32 bits ("<net> loss") and the sha256 of
// every parameter's float bits, little-endian, in Params order ("<net>
// params"). The networks are conv-heavy (avmnist's two LeNets),
// attention-heavy (mosei under transformer fusion) and LSTM-heavy
// (mustard's two LSTM encoders under concat). As with the eager output
// digests, the assembly kernels fuse every multiply-add and the portable
// ones round per step, so this map holds for amd64 assembly builds and
// portableTrainedDigests for the portable kernels (-tags noasm); race
// builds leave the test out.
var trainedDigests = map[string]string{
	"avmnist loss":   "4020d361",
	"avmnist params": "2e56c956966a8c897ee7d15c5ec33710dfc6db4f58282bcf1865c781894eba71",
	"mosei loss":     "3e77611d",
	"mosei params":   "89b650c22e810d9c5fc130bc6ea1bb3a2805e01fc002df0fc807a960d8beb6bd",
	"mustard loss":   "3f16a484",
	"mustard params": "0e2174f52aa313ce83e68f0af8c7ecba2c980bf232d4b28b1aea1c9f87a11261",
}

// portableTrainedDigests is trainedDigests for the portable Go kernels.
var portableTrainedDigests = map[string]string{
	"avmnist loss":   "4020d360",
	"avmnist params": "dc41655c844f4862aecdf4be297589885d226fb654f6297882f27571d38ec202",
	"mosei loss":     "3e77611b",
	"mosei params":   "5adc289b2d4c7a8f756cdc2f234616e07f6fe51aee869a615e4590b794da5c85",
	"mustard loss":   "3f16a483",
	"mustard params": "419056f634b058f323ec3ccf72d8f95b64f89cf3fc066e1319d9748066c26340",
}

// trainedNets are the networks TestTrainedDigests trains: workload and
// fusion variant.
var trainedNets = [][2]string{
	{"avmnist", "concat"},
	{"mosei", "transformer"},
	{"mustard", "concat"},
}

// trainDigests runs a few fixed-seed Fit steps of every trainedNets
// network on e and returns its digest map.
func trainDigests(t *testing.T, e *engine.Engine) map[string]string {
	t.Helper()
	got := map[string]string{}
	for _, nv := range trainedNets {
		n, err := workloads.Build(nv[0], nv[1], false, 42)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Epochs: 1, StepsPerEpoch: 4, BatchSize: 16, LR: 1e-3, Seed: 1, Engine: e}
		r := Fit(n, cfg)
		got[nv[0]+" loss"] = fmt.Sprintf("%08x", math.Float32bits(float32(r.FinalLoss)))
		got[nv[0]+" params"] = paramDigest(n)
	}
	return got
}

// paramDigest is the sha256 of every parameter's float bits, in order.
func paramDigest(n *mmnet.Network) string {
	h := sha256.New()
	var b [4]byte
	for _, p := range n.Params() {
		for _, v := range p.Value.Data() {
			binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestTrainedDigests pins training's bits: the same steps at one and at
// two workers must give equal digests, and those must equal the pinned
// map of the build's kernel family. On a mismatch it prints the map as
// computed, so an intended numerics change replaces it in one edit.
func TestTrainedDigests(t *testing.T) {
	want := trainedDigests
	if gemm.KernelName() == "generic" {
		want = portableTrainedDigests
	}
	e1, e2 := engine.New(1), engine.New(2)
	defer e1.Close()
	defer e2.Close()
	got := trainDigests(t, e1)
	for k, v := range trainDigests(t, e2) {
		if got[k] != v {
			t.Errorf("%s: %s at 1 worker, %s at 2", k, got[k], v)
		}
	}
	bad := len(want) != len(got)
	for k, d := range got {
		if want[k] != d {
			bad = true
			t.Errorf("%s (%s kernels): %s, want %q", k, gemm.KernelName(), d, want[k])
		}
	}
	if bad {
		keys := make([]string, 0, len(got))
		for k := range got {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var b strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&b, "\t%q: %q,\n", k, got[k])
		}
		t.Logf("computed map:\n%s", b.String())
	}
}
