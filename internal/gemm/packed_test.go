package gemm

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"

	"mmbench/internal/engine"
)

// keptKernels pairs each per-call entry point with the same product
// against a holder's kept panels. I8 runs at B's own scale, which is
// what a holder keeps.
var keptKernels = []struct {
	name    string
	perCall func(e *engine.Engine, dst, a, b []float32, m, k, n int, aT, bT bool)
	kept    func(p *PackedB, e *engine.Engine, dst, a, b []float32, m, k, n int, aT, bT bool)
}{
	{"F32",
		func(e *engine.Engine, dst, a, b []float32, m, k, n int, aT, bT bool) {
			F32(e, dst, a, b, m, k, n, 0.5, aT, bT)
		},
		func(p *PackedB, e *engine.Engine, dst, a, b []float32, m, k, n int, aT, bT bool) {
			p.F32(e, dst, a, b, m, k, n, 0.5, aT, bT, Epilogue{})
		}},
	{"F16",
		func(e *engine.Engine, dst, a, b []float32, m, k, n int, aT, bT bool) {
			F16(e, dst, a, b, m, k, n, 0.5, aT, bT)
		},
		func(p *PackedB, e *engine.Engine, dst, a, b []float32, m, k, n int, aT, bT bool) {
			p.F16(e, dst, a, b, m, k, n, 0.5, aT, bT, Epilogue{})
		}},
	{"I8",
		func(e *engine.Engine, dst, a, b []float32, m, k, n int, aT, bT bool) {
			I8(e, dst, a, b, m, k, n, 0.5, 1.0/127, (*PackedB)(nil).I8Scale(b), aT, bT)
		},
		func(p *PackedB, e *engine.Engine, dst, a, b []float32, m, k, n int, aT, bT bool) {
			p.I8(e, dst, a, b, m, k, n, 0.5, 1.0/127, p.I8Scale(b), aT, bT, Epilogue{})
		}},
}

func wantBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	for i, v := range got {
		if math.Float32bits(v) != math.Float32bits(want[i]) {
			t.Fatalf("%s: elem %d = %g, want %g (bitwise)", what, i, v, want[i])
		}
	}
}

// TestKeptPanelsMatchPerCall pins the identity a frozen network's
// forward rests on, over TestRowCountInvariance's grid with the pool
// poisoning freed buffers: a product against a holder's kept panels has
// the bits of the per-call entry point — on the call that packs them and
// on every later one — and one holder reused for 1, 2 and 9 rows gives
// each row the bits the full product gives it.
func TestKeptPanelsMatchPerCall(t *testing.T) {
	engine.SetDebug(true)
	defer engine.SetDebug(false)
	const m = 2*MR + 1
	rng := rand.New(rand.NewSource(17))
	for _, workers := range []int{1, 4} {
		e := engine.New(workers)
		for _, k := range []int{7, 33} {
			for _, n := range []int{1, NR - 1, NR, NR + 1, 2*NR + 1} {
				a := randSlice(rng, m*k)
				b := randSlice(rng, k*n)
				dst0 := randSlice(rng, m*n)
				for _, kern := range keptKernels {
					for _, tr := range []struct{ aT, bT bool }{{false, false}, {false, true}, {true, false}, {true, true}} {
						bin := b
						if tr.bT {
							bin = transpose(b, k, n)
						}
						rows := func(lo, hi int) []float32 {
							ain := a[lo*k : hi*k]
							if tr.aT {
								ain = transpose(ain, hi-lo, k)
							}
							return ain
						}
						full := append([]float32(nil), dst0...)
						kern.perCall(e, full, rows(0, m), bin, m, k, n, tr.aT, tr.bT)

						var built int64
						p := NewPackedB(func(bytes int64) { built += bytes })
						// First use packs, the rest reuse; 1, 2 and 9 rows.
						for _, span := range []struct{ lo, hi int }{{0, m}, {0, m}, {3, 4}, {5, 7}, {0, m}} {
							got := append([]float32(nil), dst0[span.lo*n:span.hi*n]...)
							kern.kept(p, e, got, rows(span.lo, span.hi), bin, span.hi-span.lo, k, n, tr.aT, tr.bT)
							wantBits(t, kern.name+" kept vs per-call", got, full[span.lo*n:span.hi*n])
						}
						if built == 0 || built != p.Bytes() {
							t.Fatalf("%s k=%d n=%d: holder reports %d bytes, callback saw %d", kern.name, k, n, p.Bytes(), built)
						}
					}
				}
			}
		}
		e.Close()
	}
}

// TestPackedBKeepsOnePanelSetPerPrecision: a second product packs
// nothing (no callback, no growth), each precision keeps its own set,
// concurrent first uses publish exactly one, and a holder used for
// another operand shape refuses instead of reading out of bounds.
func TestPackedBKeepsOnePanelSetPerPrecision(t *testing.T) {
	e := engine.New(4)
	defer e.Close()
	rng := rand.New(rand.NewSource(3))
	const m, k, n = 2, 33, 40
	a, b := randSlice(rng, m*k), randSlice(rng, k*n)
	njp, kp := panelsB(n), pairsI8(k)
	f16Elem := int64(4)
	if asmF16 {
		f16Elem = 2
	}
	wantSizes := []int64{int64(njp*k*NR) * 4, int64(njp*k*NR) * f16Elem, int64(njp * kp * 2 * NR)}

	var mu sync.Mutex
	var sizes []int64
	p := NewPackedB(func(bytes int64) {
		mu.Lock()
		sizes = append(sizes, bytes)
		mu.Unlock()
	})
	for i, kern := range keptKernels {
		ref := make([]float32, m*n)
		kern.perCall(e, ref, a, b, m, k, n, false, false)
		outs := make([][]float32, 16)
		var wg sync.WaitGroup
		for g := range outs {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				outs[g] = make([]float32, m*n)
				kern.kept(p, e, outs[g], a, b, m, k, n, false, false)
			}(g)
		}
		wg.Wait()
		for _, out := range outs {
			wantBits(t, kern.name+" racing first use", out, ref)
		}
		if len(sizes) != i+1 || sizes[i] != wantSizes[i] {
			t.Fatalf("after racing %s first uses the holder published %v, want one %d-byte set", kern.name, sizes, wantSizes[i])
		}
	}
	if want := wantSizes[0] + wantSizes[1] + wantSizes[2]; p.Bytes() != want {
		t.Fatalf("holder keeps %d bytes, want %d", p.Bytes(), want)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("a holder reused for a different operand shape did not panic")
		}
	}()
	p.F32(e, make([]float32, m*(n+1)), a, randSlice(rng, k*(n+1)), m, k, n+1, 1, false, false, Epilogue{})
}

// TestPackedBPublishesOnlyCompletePacks: a pack that ran under a
// signalled cancellation flag (its chunks were skipped) or that panicked
// leaves the holder empty, and the next call packs again and is correct.
func TestPackedBPublishesOnlyCompletePacks(t *testing.T) {
	e := engine.New(4)
	defer e.Close()
	rng := rand.New(rand.NewSource(5))
	const m, k, n = 3, 64, 200 // several pack chunks
	a, b := randSlice(rng, m*k), randSlice(rng, k*n)
	for _, kern := range keptKernels {
		ref := make([]float32, m*n)
		kern.perCall(e, ref, a, b, m, k, n, false, false)
		p := NewPackedB(nil)

		flag := engine.NewCancel()
		flag.Signal(errors.New("client went away"))
		kern.kept(p, e.WithCancel(flag), make([]float32, m*n), a, b, m, k, n, false, false)
		if p.Bytes() != 0 {
			t.Fatalf("%s: a cancelled run published %d bytes of panels", kern.name, p.Bytes())
		}

		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: short operand did not panic inside the pack", kern.name)
				}
			}()
			short := make([]float32, len(b)-n) // exact capacity: the last row is out of range
			copy(short, b)
			kern.kept(p, e, make([]float32, m*n), a, short, m, k, n, false, false)
		}()
		if p.Bytes() != 0 {
			t.Fatalf("%s: a panicked pack published %d bytes of panels", kern.name, p.Bytes())
		}

		got := make([]float32, m*n)
		kern.kept(p, e, got, a, b, m, k, n, false, false)
		wantBits(t, kern.name+" after aborted packs", got, ref)
		if p.Bytes() == 0 {
			t.Fatalf("%s: a complete pack published nothing", kern.name)
		}
	}
}
