// Package gemm is MMBench's packed-panel GEMM core: a cache-blocked,
// register-tiled float32 micro-kernel plus real reduced-precision
// variants (int8 with int32 accumulation, float16-grid B panels), all
// sharing one panel layout and one parallel driver.
//
// # Panel layout
//
// A call computes dst[M,N] += alpha · A[M,K]·B[K,N] (either operand may
// be stored transposed — the pack step absorbs the transpose, so NN, NT
// and TN all run the same inner kernel). Operands are repacked into
// panels:
//
//	A row panels    ap[(ip·K + l)·MR + r] = A[ip·MR+r][l]   (l-major)
//	B column panels bp[(jp·K + l)·NR + c] = B[l][jp·NR+c]
//
// so the micro-kernel streams both panels with unit stride. Edge panels
// are zero-padded to full MR×NR width; padded lanes never reach dst.
//
// Every product is "get B panels, then multiply against them". F32, F16
// and I8 pack both operands once per invocation into pooled engine
// scratch. A PackedB — the holder a frozen network's weight carries —
// packs B with the same routine into memory it keeps, once per
// precision, and hands it to the same multiply routine (mulF32, mulF16,
// mulI8), so kept and per-call panels give the same bits; A is packed per
// call either way. Kept panels are reachable only through their holder:
// this package has no cache of its own. Each micro-kernel has one serial
// tile-level driver — MulPanels, mulPanelsF16, mulPanelsI8 — which its
// multiply routine runs per engine chunk and which a caller with its own
// work partition drives directly over panels it packed itself: fused
// attention (one unit per batch·head and query tile, MulPanels over
// PackA/PackB/PackBT panels in its own scratch) and the convolutions
// below (ConvF32/F16/I8: one unit per sample and block of output pixels,
// whose B panels PackBConv gathers straight out of the image).
//
// # Micro-kernel
//
// The inner kernel owns an MR×NR = 4×16 accumulator block held in
// registers (eight 8-lane vectors on amd64), walking the shared K
// dimension once: per k step it loads one B panel row, broadcasts the
// four A values and issues eight fused multiply-adds. On amd64 with
// AVX2+FMA this is hand-written assembly; everywhere else a pure-Go
// kernel with the same panel layout and accumulation order runs (its
// multiply-adds round per step instead of fusing, so results are
// consistent within a platform, not across ISAs).
//
// # Accumulation-order contract
//
// Every dst element is produced by exactly one micro-kernel invocation
// that accumulates its K products in ascending-l order into a single
// register accumulator, then stores dst += alpha·acc (scale after
// accumulate). Work is partitioned over A row panels (a convolution's
// over samples and B-panel blocks) with shape-only chunking, so results
// are bitwise identical at any engine worker count and under any branch
// schedule — the engine's determinism contract.
//
// # Reduced precision
//
// I8 quantizes during packing (symmetric per-tensor levels, the same
// grid as precision.QuantizeI8): A panels widen to int16 pairs, B panels
// stay int8 and widen at load, products accumulate exactly in int32
// (vpmaddwd pairs on amd64), and one dequantization multiply runs at the
// accumulator store — the scale-after-accumulate order of real int8
// GEMM hardware. F16 rounds both operands to the float16 grid during
// packing and keeps f32 accumulation; on amd64 the B panels are stored
// as raw 16-bit halves (half the panel bandwidth) and converted in the
// kernel with vcvtph2ps, which is exact, so the packed-u16 and
// packed-f32 fallback layouts produce identical numbers.
package gemm

import (
	"sync/atomic"

	"mmbench/internal/engine"
	"mmbench/internal/precision"
)

const (
	// MR×NR is the register accumulator block: 4 rows × 16 columns =
	// eight 8-lane vector accumulators, leaving registers for the B row
	// and the A broadcast on 16-register ISAs.
	MR = 4
	NR = 16
	// packGrain is the target element count per pack chunk, matching the
	// elementwise grain used across internal/ops. Shape-only, so pack
	// partitioning never depends on the machine.
	packGrain = 8192
)

// packActivity counts pack-panel pool traffic for /v1/stats and
// /metrics (the GEMM analogue of the fused-attention scratch counters).
var packActivity struct {
	checkouts atomic.Int64
	bytes     atomic.Int64
	poolHits  atomic.Int64
}

// PackActivity is a snapshot of pack-panel pool counters: the per-call
// panels only. The panels a PackedB keeps are heap memory, packed once,
// and are not counted here (their owner reports them — the model store's
// packed bytes).
type PackActivity struct {
	// PanelCheckouts counts pooled panel buffers drawn (A and B panels
	// across every packed kernel invocation).
	PanelCheckouts int64 `json:"panel_checkouts"`
	// PanelBytes is the total bytes of panel scratch drawn.
	PanelBytes int64 `json:"panel_bytes"`
	// PanelPoolHits counts checkouts satisfied from the engine pool's
	// free list (the rest allocated fresh).
	PanelPoolHits int64 `json:"panel_pool_hits"`
}

// HitRate returns the fraction of panel checkouts served from the pool.
func (a PackActivity) HitRate() float64 {
	if a.PanelCheckouts == 0 {
		return 0
	}
	return float64(a.PanelPoolHits) / float64(a.PanelCheckouts)
}

// PackStats snapshots the process-wide pack-panel counters.
func PackStats() PackActivity {
	return PackActivity{
		PanelCheckouts: packActivity.checkouts.Load(),
		PanelBytes:     packActivity.bytes.Load(),
		PanelPoolHits:  packActivity.poolHits.Load(),
	}
}

func countPanel(bytes int64, hit bool) {
	packActivity.checkouts.Add(1)
	packActivity.bytes.Add(bytes)
	if hit {
		packActivity.poolHits.Add(1)
	}
}

func panelF32(e *engine.Engine, n int) []float32 {
	buf, hit := e.GetUninitInfo(n)
	countPanel(int64(n)*4, hit)
	return buf
}

func panelU16(e *engine.Engine, n int) []uint16 {
	buf, hit := e.GetUninitU16(n)
	countPanel(int64(n)*2, hit)
	return buf
}

func panelI16(e *engine.Engine, n int) []int16 {
	buf, hit := e.GetUninitI16(n)
	countPanel(int64(n)*2, hit)
	return buf
}

func panelI8(e *engine.Engine, n int) []int8 {
	buf, hit := e.GetUninitI8(n)
	countPanel(int64(n), hit)
	return buf
}

// KernelName reports which micro-kernel implementation this process
// runs: "avx2-fma+vnni" (assembly, int8 path fused by vpdpwssd),
// "avx2-fma" (assembly), or "generic" (portable Go).
func KernelName() string {
	switch {
	case asmVNNI:
		return "avx2-fma+vnni"
	case asmKernels:
		return "avx2-fma"
	}
	return "generic"
}

// F32 computes dst[m,n] += alpha · A·B over packed panels. aT means a is
// stored [k,m] (A read transposed); bT means b is stored [n,k]. dst has
// row stride n and is accumulated into, so gradient += calls work
// directly.
func F32(e *engine.Engine, dst, a, b []float32, m, k, n int, alpha float32, aT, bT bool) {
	if m == 0 || k == 0 || n == 0 {
		return
	}
	bp := panelF32(e, panelsB(n)*k*NR)
	defer e.Put(bp)
	packBF32(e, bp, b, k, n, bT)
	mulF32(e, dst, a, bp, m, k, n, alpha, aT, false)
}

// panelsA and panelsB count the MR-row panels of an m-row A and the
// NR-column panels of an n-column B.
func panelsA(m int) int { return (m + MR - 1) / MR }
func panelsB(n int) int { return (n + NR - 1) / NR }

// LenA and LenB are the element counts of the panels PackA fills for an
// m×k A and PackB/PackBT fill for a k×n B.
func LenA(m, k int) int { return panelsA(m) * k * MR }
func LenB(k, n int) int { return panelsB(n) * k * NR }

// MulPanels computes dst[m,n] += alpha · A·B from finished f32 panels on
// the calling goroutine: ap holds the row panels of an m×k A, bp the
// column panels of a k×n B (k ≥ 1), and dst's rows are ldd ≥ n elements
// apart. It is the only driver of kernF32 — mulF32 runs it per engine
// chunk — and the tile-level entry for callers that partition their own
// work over panels they packed themselves (PackA, PackB, PackBT,
// PackBConv): it draws no scratch and counts nothing in PackStats.
func MulPanels(dst []float32, ldd int, ap, bp []float32, m, k, n int, alpha float32) {
	var tile [MR * NR]float32
	for ip := 0; ip*MR < m; ip++ {
		app := ap[ip*k*MR : (ip+1)*k*MR]
		for jp := 0; jp*NR < n; jp++ {
			kernF32(app, bp[jp*k*NR:(jp+1)*k*NR], &tile, k)
			addTileF32(dst, ldd, &tile, ip*MR, jp*NR, m, n, alpha)
		}
	}
}

// mulF32 multiplies A against finished f32 B panels: it packs A into
// pooled scratch (through the float16 grid when f16A — the F16 fallback
// layout) and runs MulPanels, one A row panel per work unit. The per-call
// entry points and the kept panels of a PackedB differ only in where bp
// came from.
func mulF32(e *engine.Engine, dst, a, bp []float32, m, k, n int, alpha float32, aT, f16A bool) {
	ap := panelF32(e, LenA(m, k))
	defer e.Put(ap)
	if f16A {
		packAF16(e, ap, a, m, k, aT)
	} else {
		packAF32(e, ap, a, m, k, aT)
	}
	e.ParallelFor(panelsA(m), 1, func(lo, hi int) {
		MulPanels(dst[lo*MR*n:], n, ap[lo*k*MR:hi*k*MR], bp, min(m, hi*MR)-lo*MR, k, n, alpha)
	})
}

// F16 is F32 with both operands rounded to the float16 grid during
// packing (the emulated f16 storage path). The caller still owns the
// output store: dst receives the raw f32 accumulation, exactly like the
// unpacked emulation, so bias adds can join before the final f16
// rounding.
func F16(e *engine.Engine, dst, a, b []float32, m, k, n int, alpha float32, aT, bT bool) {
	if m == 0 || k == 0 || n == 0 {
		return
	}
	if asmF16 {
		// Half-width B panels: raw float16 bits, converted in-kernel by
		// vcvtph2ps (exact, so numerically identical to the f32 layout).
		bp := panelU16(e, panelsB(n)*k*NR)
		defer e.PutU16(bp)
		packBU16(e, bp, b, k, n, bT)
		mulF16(e, dst, a, bp, m, k, n, alpha, aT)
	} else {
		bp := panelF32(e, panelsB(n)*k*NR)
		defer e.Put(bp)
		packBF16F32(e, bp, b, k, n, bT)
		mulF32(e, dst, a, bp, m, k, n, alpha, aT, true)
	}
}

// mulF16 multiplies A, rounded to the float16 grid while packing,
// against finished half-width B panels: mulPanelsF16, one A row panel per
// work unit.
func mulF16(e *engine.Engine, dst, a []float32, bp []uint16, m, k, n int, alpha float32, aT bool) {
	ap := panelF32(e, LenA(m, k))
	defer e.Put(ap)
	packAF16(e, ap, a, m, k, aT)
	e.ParallelFor(panelsA(m), 1, func(lo, hi int) {
		mulPanelsF16(dst[lo*MR*n:], n, ap[lo*k*MR:hi*k*MR], bp, min(m, hi*MR)-lo*MR, k, n, alpha)
	})
}

// mulPanelsF16 is MulPanels for half-width B panels (raw float16 bits;
// ap holds f32 values already on the float16 grid) — the only driver of
// kernF16Asm.
func mulPanelsF16(dst []float32, ldd int, ap []float32, bp []uint16, m, k, n int, alpha float32) {
	var tile [MR * NR]float32
	for ip := 0; ip*MR < m; ip++ {
		app := ap[ip*k*MR : (ip+1)*k*MR]
		for jp := 0; jp*NR < n; jp++ {
			kernF16Asm(&app[0], &bp[jp*k*NR], &tile[0], int64(k))
			addTileF32(dst, ldd, &tile, ip*MR, jp*NR, m, n, alpha)
		}
	}
}

// I8 computes dst[m,n] += alpha·sa·sb · (Qa·Qb) where Qa, Qb are the
// symmetric int8 quantizations of A and B at the given scales (the same
// grid as precision.QuantizeI8; callers calibrate with
// precision.I8Scale(precision.MaxAbs(...)) — an order-independent
// reduction, so results stay deterministic). A panels are widened to
// int16 at pack time, B panels stay int8 and widen at load; products
// accumulate exactly in int32, and the single dequantization multiply
// happens at the accumulator store. Exact for any K below ~2^17 rows
// (int32 headroom at maximal |level| 127); the f32 store rounds sums
// above 2^24 to the nearest representable float, deterministically.
func I8(e *engine.Engine, dst, a, b []float32, m, k, n int, alpha, sa, sb float32, aT, bT bool) {
	if m == 0 || k == 0 || n == 0 {
		return
	}
	bp := panelI8(e, panelsB(n)*pairsI8(k)*2*NR)
	defer e.PutI8(bp)
	packBI8(e, bp, b, k, n, sb, bT)
	mulI8(e, dst, a, bp, m, k, n, alpha, sa, sb, aT)
}

// pairsI8 is the int16 pair count of a K-long int8 dot; odd K pads a
// zero level (exact).
func pairsI8(k int) int { return (k + 1) / 2 }

// mulI8 quantizes and packs A at scale sa and multiplies it against
// finished int8 B panels quantized at sb: mulPanelsI8, one A row panel per
// work unit.
func mulI8(e *engine.Engine, dst, a []float32, bp []int8, m, k, n int, alpha, sa, sb float32, aT bool) {
	kp := pairsI8(k)
	ap := panelI16(e, panelsA(m)*kp*2*MR)
	defer e.PutI16(ap)
	packAI16(e, ap, a, m, k, sa, aT)
	deq := alpha * sa * sb
	e.ParallelFor(panelsA(m), 1, func(lo, hi int) {
		mulPanelsI8(dst[lo*MR*n:], n, ap[lo*kp*2*MR:hi*kp*2*MR], bp, min(m, hi*MR)-lo*MR, kp, n, deq)
	})
}

// mulPanelsI8 is MulPanels for quantized panels of kp K-pairs each:
// dst[m,n] += deq · (Qa·Qb), accumulated exactly in int32 and dequantized
// at the tile store — the only driver of kernI8.
func mulPanelsI8(dst []float32, ldd int, ap []int16, bp []int8, m, kp, n int, deq float32) {
	var tile [MR * NR]int32
	for ip := 0; ip*MR < m; ip++ {
		app := ap[ip*kp*2*MR : (ip+1)*kp*2*MR]
		for jp := 0; jp*NR < n; jp++ {
			kernI8(app, bp[jp*kp*2*NR:(jp+1)*kp*2*NR], &tile, kp)
			addTileI32(dst, ldd, &tile, ip*MR, jp*NR, m, n, deq)
		}
	}
}

// Convolution as an implicit GEMM. Per sample, dst[outC, OH·OW] +=
// W[outC, K] · patches[K, OH·OW], and the patch matrix is never stored:
// the weights are packed into A panels once per call, and each work unit —
// one sample's block of convBlockPanels(K) B panels, consecutive output
// pixels — gathers its panels out of the image into pooled scratch
// (PackBConv), converts them in place to the precision's B layout, and
// multiplies every A panel against them while they are cache-resident.
// Same panels, same micro-kernel, same K order as a GEMM over the stored
// patch matrix, so each output element has that GEMM's bits, at any worker
// count and whichever samples share the call.

// convBlockPanels is the number of B panels one convolution work unit
// gathers and multiplies: as many as fit ≈256 KiB as float32, at least 1,
// at most 8. A function of the shape alone, like every work partition.
func convBlockPanels(k int) int { return max(1, min(8, (256<<10)/(k*NR*4))) }

// convUnits runs mul once per (sample, B-panel block) work unit of an
// n-sample convolution over x [n,C,H,W]: bp holds the f32 panels of
// sample ni's cols output pixels starting at j0. The scratch behind bp is
// the unit's own, drawn and returned inside it.
func convUnits(e *engine.Engine, x []float32, n int, g ConvShape, mul func(bp []float32, ni, j0, cols int)) {
	k, m, img := g.K(), g.OH*g.OW, g.C*g.H*g.W
	block := convBlockPanels(k) * NR
	blocks := (m + block - 1) / block
	unit := func(u int) {
		ni, j0 := u/blocks, u%blocks*block
		cols := min(block, m-j0)
		bp := panelF32(e, LenB(k, cols))
		defer e.Put(bp)
		PackBConv(bp, x[ni*img:(ni+1)*img], g, j0, cols)
		mul(bp, ni, j0, cols)
	}
	e.ParallelFor(n*blocks, 1, func(lo, hi int) {
		for u := lo; u < hi; u++ {
			unit(u)
		}
	})
}

// ConvF32 computes dst[n,outC,OH,OW] += conv(x[n,C,H,W], w[outC,C,KH,KW])
// in float32.
func ConvF32(e *engine.Engine, dst, w, x []float32, n, outC int, g ConvShape) {
	k, m := g.K(), g.OH*g.OW
	ap := panelF32(e, LenA(outC, k))
	defer e.Put(ap)
	packAF32(e, ap, w, outC, k, false)
	convUnits(e, x, n, g, func(bp []float32, ni, j0, cols int) {
		MulPanels(dst[ni*outC*m+j0:], m, ap, bp, outC, k, cols, 1)
	})
}

// ConvF16 is ConvF32 with both operands rounded to the float16 grid as
// they are packed (F16's arrangement: f32 accumulation, the caller owns
// the output store).
func ConvF16(e *engine.Engine, dst, w, x []float32, n, outC int, g ConvShape) {
	k, m := g.K(), g.OH*g.OW
	ap := panelF32(e, LenA(outC, k))
	defer e.Put(ap)
	packAF16(e, ap, w, outC, k, false)
	convUnits(e, x, n, g, func(bp []float32, ni, j0, cols int) {
		d := dst[ni*outC*m+j0:]
		if asmF16 {
			mulPanelsF16(d, m, ap, f16BitsInPlace(bp), outC, k, cols, 1)
		} else {
			precision.RoundF16Slice(bp, bp)
			MulPanels(d, m, ap, bp, outC, k, cols, 1)
		}
	})
}

// ConvI8 is ConvF32 over int8 levels (I8's arrangement): the weights are
// quantized at sw once, sample ni's patches at sx[ni] — a merged batch
// carries one activation scale per request segment — and each tile is
// dequantized by sw·sx[ni] at its store.
func ConvI8(e *engine.Engine, dst, w, x []float32, n, outC int, g ConvShape, sw float32, sx []float32) {
	k, m := g.K(), g.OH*g.OW
	kp := pairsI8(k)
	ap := panelI16(e, panelsA(outC)*kp*2*MR)
	defer e.PutI16(ap)
	packAI16(e, ap, w, outC, k, sw, false)
	convUnits(e, x, n, g, func(bp []float32, ni, j0, cols int) {
		mulPanelsI8(dst[ni*outC*m+j0:], m, ap, i8PairsInPlace(bp, k, 1/sx[ni]), outC, kp, cols, sw*sx[ni])
	})
}

// addTileF32 accumulates the valid region of a full MR×NR tile into dst,
// whose rows are ldd elements apart: dst[i0+r][j0+c] += alpha·tile[r][c].
// Multiplying by alpha == 1 is a bitwise identity, so the common unscaled
// call pays one multiply and no branch.
func addTileF32(dst []float32, ldd int, tile *[MR * NR]float32, i0, j0, m, n int, alpha float32) {
	rows, cols := min(MR, m-i0), min(NR, n-j0)
	for r := 0; r < rows; r++ {
		if cols == NR {
			// Interior tile: fixed-size rows need no bounds checks, and four
			// independent updates per step keep the adder busy.
			dr, tr := (*[NR]float32)(dst[(i0+r)*ldd+j0:]), (*[NR]float32)(tile[r*NR:])
			for c := 0; c < NR; c += 4 {
				dr[c] += alpha * tr[c]
				dr[c+1] += alpha * tr[c+1]
				dr[c+2] += alpha * tr[c+2]
				dr[c+3] += alpha * tr[c+3]
			}
			continue
		}
		dr := dst[(i0+r)*ldd+j0 : (i0+r)*ldd+j0+cols]
		tr := tile[r*NR : r*NR+cols]
		for c, v := range tr {
			dr[c] += alpha * v
		}
	}
}

// addTileI32 dequantizes and accumulates an int32 tile into dst, whose
// rows are ldd elements apart: dst[i0+r][j0+c] += deq·float32(tile[r][c]).
func addTileI32(dst []float32, ldd int, tile *[MR * NR]int32, i0, j0, m, n int, deq float32) {
	rows, cols := min(MR, m-i0), min(NR, n-j0)
	for r := 0; r < rows; r++ {
		dr := dst[(i0+r)*ldd+j0 : (i0+r)*ldd+j0+cols]
		tr := tile[r*NR : r*NR+cols]
		for c, v := range tr {
			dr[c] += deq * float32(v)
		}
	}
}
