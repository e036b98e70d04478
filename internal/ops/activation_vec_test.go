package ops

import (
	"math"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"testing"
)

// activationKernels pairs each dispatched slice kernel with the scalar
// loop it must equal bit for bit.
var activationKernels = []struct {
	name          string
	slice, scalar func(dst, src []float32)
}{
	{"gelu", geluSlice, geluScalar},
	{"sigmoid", sigmoidSlice, sigmoidScalar},
	{"tanh", tanhSlice, tanhScalar},
}

// firstTrue returns the smallest positive float32 x in [lo, hi] with
// pred(x), for a predicate that is false at lo, true at hi and monotone
// in between (positive floats order as their bit patterns).
func firstTrue(pred func(float32) bool, lo, hi float32) float32 {
	a, b := math.Float32bits(lo), math.Float32bits(hi)
	for b-a > 1 {
		m := a + (b-a)/2
		if pred(math.Float32frombits(m)) {
			b = m
		} else {
			a = m
		}
	}
	return math.Float32frombits(b)
}

// vecEdgeInputs is every input class on which a vector lane could part
// from the scalar loop: both zeros and infinities, quiet and signalling
// NaNs of both signs with several payloads, subnormals, and a few ulps
// either side of each edge — ±87 and ±88, where each function's exponent
// argument crosses expMin (the flush) and 87 (the clamp), and where
// geluArg overflows to ±Inf near |x| ≈ 1.7e13 — plus the dense grid of
// activationInputs and random bit patterns. Every value comes with its
// negation; the length is a multiple of 16, so every element runs on a
// vector lane.
func vecEdgeInputs() []float32 {
	var bits []uint32
	add := func(b uint32) { bits = append(bits, b, b^signBit) }
	for _, b := range []uint32{
		0, 0x7f800000, // 0, Inf
		0x7fc00000, 0x7fc00001, 0x7fd23456, 0x7fffffff, // quiet NaNs
		0x7f800001, 0x7fa00000, 0x7fbfffff, // signalling NaNs
		1, 2, 0x3ff, 0x400000, 0x7fffff, // subnormals
		0x00800000, 0x7f7fffff, // smallest and largest normals
	} {
		add(b)
	}
	around := func(x float32) {
		c := math.Float32bits(x)
		for d := uint32(0); d <= 8; d++ {
			add(c + d)
			add(c - d)
		}
	}
	for _, x := range []float32{87, 88, 1e13} {
		around(x)
	}
	flush := float32(-expMin)
	around(flush)                                                            // sigmoid: −x < expMin
	around(firstTrue(func(x float32) bool { return -2*x < expMin }, 1, 100)) // tanh
	around(firstTrue(func(x float32) bool { return geluArg(x) > flush }, 1, 100))
	around(firstTrue(func(x float32) bool { return geluArg(x) > 87 }, 1, 100))
	around(firstTrue(func(x float32) bool { return math.IsInf(float64(geluArg(x)), 1) }, 1, 1e20))
	for _, x := range activationInputs() {
		add(math.Float32bits(x))
	}
	rng := rand.New(rand.NewSource(36))
	for range 1 << 15 {
		add(rng.Uint32())
	}
	for len(bits)%16 != 0 {
		add(0)
	}
	xs := make([]float32, len(bits))
	for i, b := range bits {
		xs[i] = math.Float32frombits(b)
	}
	return xs
}

// requireSameBits fails on the first element where got and want differ
// in any bit.
func requireSameBits(t *testing.T, what string, xs, got, want []float32) {
	t.Helper()
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s(%#08x = %g) = %#08x, scalar loop %#08x", what,
				math.Float32bits(xs[i]), xs[i], math.Float32bits(got[i]), math.Float32bits(want[i]))
		}
	}
}

func logVecPath(t *testing.T) {
	if !vecActivations {
		t.Log("no AVX-512F vector bodies on this build or CPU: the slice kernels are the scalar loops")
	}
}

// TestActivationVectorMatchesScalar requires every slice kernel to give
// the scalar loop's bits on the edge inputs, NaN payloads included.
func TestActivationVectorMatchesScalar(t *testing.T) {
	logVecPath(t)
	xs := vecEdgeInputs()
	for _, k := range activationKernels {
		want := make([]float32, len(xs))
		k.scalar(want, xs)
		got := make([]float32, len(xs))
		k.slice(got, xs)
		requireSameBits(t, k.name, xs, got, want)
	}
}

// TestActivationVectorTailsAndAliasing runs every length 0–40, so each
// tail size meets the vector body, in place (dst == src) and on
// subslices at every offset from the allocation's alignment; elements of
// dst past len(src) must stay untouched.
func TestActivationVectorTailsAndAliasing(t *testing.T) {
	logVecPath(t)
	edge := vecEdgeInputs()
	const poison = 0x7fc0dead
	for _, k := range activationKernels {
		for n := 0; n <= 40; n++ {
			for off := 0; off < 16; off++ {
				base := make([]float32, 16+n+16)
				copy(base[off:], edge[(n*17+off*131)%(len(edge)-n):][:n])
				src := base[off : off+n]
				want := make([]float32, n)
				k.scalar(want, src)

				out := make([]float32, 16+n+16)
				for i := range out {
					out[i] = math.Float32frombits(poison)
				}
				dst := out[15-off : 15-off+n+3]
				k.slice(dst, src)
				requireSameBits(t, k.name, src, dst[:n], want)
				for i, y := range out {
					if (i < 15-off || i >= 15-off+n) && math.Float32bits(y) != poison {
						t.Fatalf("%s, n=%d, offset %d: wrote out[%d] outside dst[:len(src)]", k.name, n, off, i)
					}
				}

				in := append([]float32(nil), base...)
				k.slice(in[off:off+n], in[off:off+n])
				requireSameBits(t, k.name+" in place", src, in[off:off+n], want)
			}
		}
	}
}

// activationSweepEnv gates TestActivationVectorExhaustive: set to 1, the
// test checks all 2³² inputs of each kernel (about two and a half
// minutes for the three on two cores), as CI does.
const activationSweepEnv = "MMBENCH_ACTIVATION_SWEEP"

// TestActivationVectorExhaustive checks every slice kernel against its
// scalar loop at every float32 bit pattern, over blocks of consecutive
// patterns, in place.
func TestActivationVectorExhaustive(t *testing.T) {
	if os.Getenv(activationSweepEnv) != "1" {
		t.Skipf("set %s=1 to check all 2³² inputs", activationSweepEnv)
	}
	if !vecActivations {
		t.Skip("no AVX-512F vector bodies on this build or CPU: nothing to compare the scalar loops with")
	}
	for _, k := range activationKernels {
		const parts, block = 64, 4096
		var wg sync.WaitGroup
		bad := make(chan uint32, parts)
		sem := make(chan struct{}, runtime.GOMAXPROCS(0))
		for part := uint64(0); part < parts; part++ {
			wg.Add(1)
			sem <- struct{}{}
			go func() {
				defer func() { <-sem; wg.Done() }()
				var got, want [block]float32
				for lo := part << 32 / parts; lo < (part+1)<<32/parts; lo += block {
					for i := range got {
						got[i] = math.Float32frombits(uint32(lo) + uint32(i))
					}
					k.scalar(want[:], got[:])
					k.slice(got[:], got[:])
					for i := range got {
						if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
							bad <- uint32(lo) + uint32(i)
							return
						}
					}
				}
			}()
		}
		wg.Wait()
		close(bad)
		for b := range bad {
			x := []float32{math.Float32frombits(b)}
			got, want := make([]float32, 16), make([]float32, 1)
			k.scalar(want, x)
			k.slice(got, append(x, make([]float32, 15)...))
			requireSameBits(t, k.name, x, got[:1], want)
		}
	}
}
