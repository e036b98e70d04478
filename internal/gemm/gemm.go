// Package gemm is MMBench's packed-panel GEMM core: a cache-blocked,
// register-tiled float32 micro-kernel plus real reduced-precision
// variants (int8 with int32 accumulation, float16-grid B panels), all
// sharing one panel layout and one parallel driver.
//
// # Panel layout
//
// A call computes dst[M,N] += alpha · A[M,K]·B[K,N] (either operand may
// be stored transposed — the pack step absorbs the transpose, so NN, NT
// and TN all run the same inner kernel), followed by its store epilogue
// (Epilogue: a per-column or per-row bias, an f16 re-store and a ReLU,
// applied as each tile reaches dst). Operands are repacked into panels:
//
//	A row panels    ap[(ip·K + l)·MR + r] = A[ip·MR+r][l]   (l-major)
//	B column panels bp[(jp·K + l)·NR + c] = B[l][jp·NR+c]
//
// so the micro-kernel streams both panels with unit stride. Edge panels
// are zero-padded to full MR×NR width; padded lanes never reach dst.
//
// Each operand has one packer: PackA (packAT for an A stored transposed)
// fills A's row panels, and PackB, PackBT and PackBConv (a convolution's
// image windows) fill B's column panels. A reduced-precision panel is
// that f32 panel, finished by its layout's one conversion in the engine
// chunk that packed it (pack.go lists the four), so precision changes the
// arithmetic and nothing else on the data path.
//
// Every product is "get B panels, then multiply against them". F32, F16
// and I8 pack both operands once per invocation into pooled engine
// scratch. A PackedB — the holder a frozen network's weight carries —
// packs B with the same packer and finish into memory it keeps, once per
// precision, and hands it to the same multiply routine (mulF32, mulI8),
// so kept and per-call panels give the same bits; A is packed per call
// either way. Kept panels are reachable only through their holder:
// this package has no cache of its own. The float micro-kernels have one
// serial tile-level driver, mulTiles (over f32 or half-width B panels;
// MulPanels is its exported f32 form), and the int8 kernel has
// mulPanelsI8; each multiply routine runs its driver per engine chunk,
// and a caller with its own work partition drives one directly over
// panels it packed itself: fused
// attention (one unit per batch·head and query tile, MulPanels over
// PackA/PackB/PackBT panels in its own scratch) and the convolutions
// below (ConvF32/F16/I8: one unit per sample and block of output pixels,
// whose B panels PackBConv gathers straight out of the image and the
// finish converts in place, and ConvGradF32, their f32 backward: one unit
// per sample for the input gradient and per group of K-column panels for
// the weight gradient).
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
// Where the CPU has AVX-512F (and the OS saves ZMM state), the f32 and
// f16 products also run two wider kernels over the same panels. The
// tile-pair kernel's sixteen 16-lane accumulators cover the 8×32 block of
// two consecutive A panels and two consecutive B panels: per k step two
// B rows and eight A broadcasts feed sixteen fused multiply-adds. The
// one-panel kernel's cover the 4×64 block of one A panel and four
// consecutive B panels: four B rows and four broadcasts per step, or,
// in its two-row form for a panel with at most two live rows, eight
// accumulators fed by two broadcasts. mulTiles runs every full pair of
// panels through the tile pair, the odd last A panel (the only panel of
// a product of at most four rows) through the one-panel kernel in
// groups of four B panels, and what is left — the pairs' odd last B
// panel, one to three B panels beside the groups — through the 4×16
// kernel. Whether the wide kernels run is decided once, from CPUID and
// XCR0, like the VNNI choice, and which one covers a tile by the shape
// alone; each element is the same fused chain in every kernel, so the
// bits depend on neither. The int8 kernel stays 4×16.
//
// Every tile reaches dst through addTileF32, the one store, which also
// applies the product's Epilogue. With the assembly kernels a full-width
// tile is stored by storeTileAsm, or with a row bias by storeTileRowAsm
// (which also applies a ReLU): 8-lane multiplies and adds, each rounded
// on its own in the scalar store's order, so the store's bits do not
// depend on which form ran either. A convolution's bias is a row bias —
// one per output channel — so its output is written once, as bias +
// product, and never read by its store.
//
// # Accumulation-order contract
//
// Every dst element is produced by exactly one micro-kernel invocation
// that accumulates its K products in ascending-l order into a single
// register accumulator, then stores dst += alpha·acc (scale after
// accumulate) and the epilogue on that sum. Work is partitioned over A
// row panels (a convolution's over samples and B-panel blocks) with
// chunking that depends on the shape and the kernel choice alone
// (grainA), so results are bitwise identical at any engine worker count
// and under any branch schedule — the engine's determinism contract.
// The convolution backward's sums run over samples and pixel blocks, so
// its elements take one such store per (sample, block) — the input
// gradient's through its scatter — in an order fixed by the shape, each
// element owned by one work unit.
//
// # Reduced precision
//
// I8 quantizes during packing (symmetric per-tensor levels, the same
// grid as precision.QuantizeI8): A panels widen to int16 pairs, B panels
// stay int8 and widen at load, products accumulate exactly in int32
// (vpmaddwd pairs on amd64), and one dequantization multiply runs at the
// accumulator store — the scale-after-accumulate order of real int8
// GEMM hardware. F16 rounds both operands to the float16 grid during
// packing and keeps f32 accumulation; where F16C exists the B panels are
// raw 16-bit halves (half the panel bandwidth) converted in the kernel
// with vcvtph2ps, which is exact, so they give the numbers of the float32
// grid layout the other hosts multiply (f16Bits is the one place that
// layout is chosen). A product whose
// output is stored at f16 rounds each element through the grid in its
// tile store (Epilogue.F16), so no caller runs a re-store pass.
package gemm

import (
	"math"
	"sync"

	"mmbench/internal/engine"
	"mmbench/internal/hostcpu"
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

// PackActivity is the engine's count of the per-call panels this core
// draws through engine.GetPanel, low-precision panels included (each is a
// view of the float32 memory it draws).
type PackActivity = engine.PackActivity

// PackStats reads the default engine's pack-panel counters: the panels
// of every run that does not bring its own engine — every served run.
func PackStats() PackActivity { return engine.TotalStats().Pack }

// KernelName reports which micro-kernel implementation this process
// runs: "avx512f-8x32+vnni" (assembly, f32/f16 tile pairs and one-panel
// kernels on ZMM, int8 path fused by vpdpwssd), "avx512f-8x32" (the same
// without VNNI), "avx2-fma+vnni", "avx2-fma" (assembly, 4×16 tiles only),
// or "generic" (portable Go).
func KernelName() string {
	switch {
	case asmWide && asmVNNI:
		return "avx512f-8x32+vnni"
	case asmWide:
		return "avx512f-8x32"
	case asmVNNI:
		return "avx2-fma+vnni"
	case asmKernels:
		return "avx2-fma"
	}
	return "generic"
}

// AVX512DQ reports whether this process may run AVX-512F and AVX-512DQ
// code (hostcpu.AVX512DQ). tensor's vector fills dispatch on it.
func AVX512DQ() bool { return hostcpu.AVX512DQ }

// Epilogue is what a product does to an element as its tile reaches dst.
// The element's sum starts from dst — or, with Overwrite, from 0, and
// with RowBias from RowBias[i], the bias of its row (a convolution's
// output channel); with either dst is not read. Bias[j], the bias of its
// column, then joins the sum; F16 re-stores the result through the
// float16 grid (precision.RoundF16); and ReLU clears it when its sign bit
// is set (ops' ReLU rule), after any rounding. A product sets at most one
// of Bias and RowBias, and Overwrite only without RowBias. An element is
// stored once, so
//
//	dst[i][j] = ReLU(RoundF16((dst[i][j] + alpha·acc[i][j]) + Bias[j]))
//	dst[i][j] = ReLU(RoundF16((0 + alpha·acc[i][j]) + Bias[j]))  Overwrite
//	dst[i][j] = ReLU(RoundF16(RowBias[i] + alpha·acc[i][j]))
//
// have the bits of the product followed by a bias pass, a rounding pass
// and a ReLU pass: the same operations in the same order. With Overwrite
// they are the bits of a zeroed dst accumulated into (the explicit 0 +
// turns a −0 product into +0, as the zeroed dst does), and with RowBias
// the bits of a dst filled with the row's bias before the product, since
// IEEE addition commutes. The zero Epilogue stores dst + alpha·acc alone.
// An empty product (m, k or n zero) stores nothing, its epilogue
// included, so an overwriting product's dst must be zeroed if k can be 0.
type Epilogue struct {
	Bias      []float32
	RowBias   []float32
	Overwrite bool
	F16       bool
	ReLU      bool
}

// F32 computes dst[m,n] += alpha · A·B over packed panels. aT means a is
// stored [k,m] (A read transposed); bT means b is stored [n,k]. dst has
// row stride n and is accumulated into, so gradient += calls work
// directly.
func F32(e *engine.Engine, dst, a, b []float32, m, k, n int, alpha float32, aT, bT bool) {
	(*PackedB)(nil).F32(e, dst, a, b, m, k, n, alpha, aT, bT, Epilogue{})
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
// apart. It is mulTiles over f32 B panels — mulF32 runs it per engine
// chunk — and the tile-level entry for callers that partition their own
// work over panels they packed themselves (PackA, PackB, PackBT,
// PackBConv): it draws no scratch and counts nothing.
func MulPanels(dst []float32, ldd int, ap, bp []float32, m, k, n int, alpha float32) {
	mulTiles(dst, ldd, ap, bp, m, k, n, alpha, Epilogue{})
}

// mulTiles computes dst[m,n] += alpha · A·B from row panels ap and column
// panels bp — f32 values, or raw float16 bits for the vcvtph2ps kernels
// (ap then already on the float16 grid) — followed by ep, on the calling
// goroutine; ep.Bias is indexed by the column within dst. It is
// the only driver of the f32 and f16 micro-kernels. Where the AVX-512
// kernels run (asmWide), each pair of A panels meets each pair of B
// panels in one 8×32 call, the odd last A panel — the only panel of a
// product of at most four rows — meets each group of four B panels in one
// 4×64 call (its two-row form when at most two of the panel's rows are
// live), and the 4×16 kernel covers the rest: the odd last B panel beside
// the pairs and the last one to three B panels beside the groups.
// Elsewhere the 4×16 kernel covers every tile. Every kernel gives an
// element the same fused chain, so the bits do not depend on which one
// computed it. Every tile reaches dst through addTileF32, which applies
// ep as it stores: each kernel spans all of K, so an element's one store
// is its final value.
func mulTiles[B float32 | uint16](dst []float32, ldd int, ap []float32, bp []B, m, k, n int, alpha float32, ep Epilogue) {
	npa, npb := panelsA(m), panelsB(n)
	npa2, npb2, npb4 := 0, 0, 0 // the panels the AVX-512 kernels cover
	if asmWide {
		npa2, npb2, npb4 = npa&^1, npb&^1, npb&^3
	}
	var block [4][MR * NR]float32
	for ip := 0; ip < npa2; ip += 2 {
		app := ap[ip*k*MR : (ip+2)*k*MR]
		for jp := 0; jp < npb2; jp += 2 {
			kernTilePair(app, bp[jp*k*NR:(jp+2)*k*NR], &block, k)
			for s := range block {
				addTileF32(dst, ldd, &block[s], (ip+s/2)*MR, (jp+s%2)*NR, m, n, alpha, &ep)
			}
		}
	}
	var tile [MR * NR]float32
	for ip := 0; ip < npa; ip++ {
		app := ap[ip*k*MR : (ip+1)*k*MR]
		jp := npb2
		if ip >= npa2 {
			for jp = 0; jp < npb4; jp += 4 {
				kernPanelRow(app, bp[jp*k*NR:(jp+4)*k*NR], &block, k, m-ip*MR <= 2)
				for s := range block {
					addTileF32(dst, ldd, &block[s], ip*MR, (jp+s)*NR, m, n, alpha, &ep)
				}
			}
		}
		for ; jp < npb; jp++ {
			kernTile(app, bp[jp*k*NR:(jp+1)*k*NR], &tile, k)
			addTileF32(dst, ldd, &tile, ip*MR, jp*NR, m, n, alpha, &ep)
		}
	}
}

// kernTile runs the 4×16 kernel of bp's layout: tile = A panel ap times B
// panel bp.
func kernTile[B float32 | uint16](ap []float32, bp []B, tile *[MR * NR]float32, k int) {
	switch bp := any(bp).(type) {
	case []float32:
		kernF32(ap, bp, tile, k)
	case []uint16:
		kernF16Asm(&ap[0], &bp[0], &tile[0], int64(k))
	}
}

// kernTilePair runs the tile-pair kernel of bp's layout: block holds the
// tiles of A panels ap[:k·MR], ap[k·MR:] times B panels bp[:k·NR],
// bp[k·NR:], in the order (0, 0), (0, 1), (1, 0), (1, 1).
func kernTilePair[B float32 | uint16](ap []float32, bp []B, block *[4][MR * NR]float32, k int) {
	switch bp := any(bp).(type) {
	case []float32:
		kernF32x2Asm(&ap[0], &bp[0], &block[0][0], int64(k))
	case []uint16:
		kernF16x2Asm(&ap[0], &bp[0], &block[0][0], int64(k))
	}
}

// kernPanelRow runs the one-panel kernel of bp's layout: block holds the
// tiles of A panel ap times B panels bp[j·k·NR:(j+1)·k·NR], j = 0..3.
// With twoRows only rows 0 and 1 of each tile are computed and written —
// the caller reads no other row.
func kernPanelRow[B float32 | uint16](ap []float32, bp []B, block *[4][MR * NR]float32, k int, twoRows bool) {
	switch bp := any(bp).(type) {
	case []float32:
		if twoRows {
			kernF32x4R2Asm(&ap[0], &bp[0], &block[0][0], int64(k))
		} else {
			kernF32x4Asm(&ap[0], &bp[0], &block[0][0], int64(k))
		}
	case []uint16:
		if twoRows {
			kernF16x4R2Asm(&ap[0], &bp[0], &block[0][0], int64(k))
		} else {
			kernF16x4Asm(&ap[0], &bp[0], &block[0][0], int64(k))
		}
	}
}

// grainA is the A-panel grain of an f32 or f16 product's work partition:
// two where the tile-pair kernels run, so no chunk boundary splits a pair
// of A panels, else one.
func grainA() int {
	if asmWide {
		return 2
	}
	return 1
}

// mulF32 multiplies A against finished B panels bp — f32 panels, or, with
// f16, f16 panel memory, and A rounded through the float16 grid as it is
// packed: it packs A into pooled scratch and runs mulTiles, grainA() A row
// panels per work unit. The per-call entry points and the kept panels of
// a PackedB differ only in where bp came from.
func mulF32(e *engine.Engine, dst, a, bp []float32, m, k, n int, alpha float32, aT, f16 bool, ep Epilogue) {
	ap := e.GetPanel(LenA(m, k))
	defer e.Put(ap)
	packAF32(e, ap, a, m, k, aT, f16)
	j := getJob(dst, m, k, n, alpha, ep)
	j.ap, j.bp, j.f16 = ap, bp, f16
	j.run(e, grainA())
}

// mulJob is one product's operands and store, handed to the engine's
// chunks through its chunk method value, which is bound once when the
// job is made. A closure over them would be a heap object per call (the
// engine's queue makes every ParallelFor body escape); a pooled job is
// not. Exactly one of bp and bpI is set.
type mulJob struct {
	dst     []float32
	ap      []float32 // f32 and f16 A panels
	apI     []int16   // int8 A panels
	bp      []float32 // f32 B panels, or f16 panel memory when f16
	bpI     []int8
	f16     bool
	m, k, n int // k counts K pairs for int8 panels
	alpha   float32
	ep      Epilogue
	chunk   func(lo, hi int)
}

var mulJobs = sync.Pool{New: func() any {
	j := new(mulJob)
	j.chunk = j.panels
	return j
}}

// getJob draws a pooled job for a product into dst; the caller sets its
// panels and calls run.
func getJob(dst []float32, m, k, n int, alpha float32, ep Epilogue) *mulJob {
	j := mulJobs.Get().(*mulJob)
	j.dst, j.m, j.k, j.n, j.alpha, j.ep = dst, m, k, n, alpha, ep
	return j
}

// run multiplies the job's A row panels against its B panels, grain A
// panels per engine chunk, then clears the job (it must not keep panels
// alive) and returns it to the pool.
func (j *mulJob) run(e *engine.Engine, grain int) {
	e.ParallelFor(panelsA(j.m), grain, j.chunk)
	*j = mulJob{chunk: j.chunk}
	mulJobs.Put(j)
}

// panels runs A row panels [lo, hi) of the job.
func (j *mulJob) panels(lo, hi int) {
	dst, m, k, n := j.dst[lo*MR*j.n:], min(j.m, hi*MR)-lo*MR, j.k, j.n
	ep := j.ep
	if ep.RowBias != nil {
		ep.RowBias = ep.RowBias[lo*MR:]
	}
	switch {
	case j.bpI != nil:
		mulPanelsI8(dst, n, j.apI[lo*k*2*MR:hi*k*2*MR], j.bpI, m, k, n, j.alpha, ep)
	case j.f16:
		mulTilesF16(dst, n, j.ap[lo*k*MR:hi*k*MR], j.bp, m, k, n, j.alpha, ep)
	default:
		mulTiles(dst, n, j.ap[lo*k*MR:hi*k*MR], j.bp, m, k, n, j.alpha, ep)
	}
}

// F16 is F32 with both operands rounded to the float16 grid during
// packing. dst receives the raw f32 accumulation; a product stored at
// f16 passes Epilogue.F16 to PackedB.F16 (a nil holder packs per call),
// which rounds each element, after a bias has joined, in the tile store.
func F16(e *engine.Engine, dst, a, b []float32, m, k, n int, alpha float32, aT, bT bool) {
	(*PackedB)(nil).F16(e, dst, a, b, m, k, n, alpha, aT, bT, Epilogue{})
}

// mulTilesF16 is mulTiles over f16 panel memory bp, in its layout.
func mulTilesF16(dst []float32, ldd int, ap, bp []float32, m, k, n int, alpha float32, ep Epilogue) {
	if h, f := f16Panels(bp); h != nil {
		mulTiles(dst, ldd, ap, h, m, k, n, alpha, ep)
	} else {
		mulTiles(dst, ldd, ap, f, m, k, n, alpha, ep)
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
	(*PackedB)(nil).I8(e, dst, a, b, m, k, n, alpha, sa, sb, aT, bT, Epilogue{})
}

// pairsI8 is the int16 pair count of a K-long int8 dot; odd K pads a
// zero level (exact).
func pairsI8(k int) int { return (k + 1) / 2 }

// mulI8 quantizes and packs A at scale sa and multiplies it against
// finished int8 B panels quantized at sb: mulPanelsI8, one A row panel per
// work unit.
func mulI8(e *engine.Engine, dst, a []float32, bp []int8, m, k, n int, alpha, sa, sb float32, aT bool, ep Epilogue) {
	kp := pairsI8(k)
	mem := e.GetPanel(panelsA(m) * kp * MR) // kp·2·MR int16 per panel
	defer e.Put(mem)
	ap := view[int16](mem)
	packAI8(e, ap, a, m, k, aT, 1/sa)
	j := getJob(dst, m, kp, n, alpha*sa*sb, ep)
	j.apI, j.bpI = ap, bp
	j.run(e, 1)
}

// mulPanelsI8 is mulTiles for quantized panels of kp K-pairs each:
// dst[m,n] += deq · (Qa·Qb), accumulated exactly in int32 and dequantized
// at the tile store, followed by ep — the only driver of kernI8. The int32
// tile converts to float32 (exactly what the store's float32(v) would
// give) and reaches dst through addTileF32 with alpha = deq.
func mulPanelsI8(dst []float32, ldd int, ap []int16, bp []int8, m, kp, n int, deq float32, ep Epilogue) {
	var tile [MR * NR]int32
	var ft [MR * NR]float32
	for ip := 0; ip*MR < m; ip++ {
		app := ap[ip*kp*2*MR : (ip+1)*kp*2*MR]
		for jp := 0; jp*NR < n; jp++ {
			kernI8(app, bp[jp*kp*2*NR:(jp+1)*kp*2*NR], &tile, kp)
			for i, v := range tile {
				ft[i] = float32(v)
			}
			addTileF32(dst, ldd, &ft, ip*MR, jp*NR, m, n, deq, &ep)
		}
	}
}

// Convolution as an implicit GEMM. Per sample, dst[outC, OH·OW] +=
// W[outC, K] · patches[K, OH·OW], and the patch matrix is never stored:
// the weights are packed into A panels once per call, and each work unit —
// one sample's block of convBlockPanels(K) B panels, consecutive output
// pixels — gathers its panels out of the image into pooled scratch
// (PackBConv), finishes them in place in the precision's B layout, and
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
		bp := e.GetPanel(LenB(k, cols))
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
// in float32, followed by ep as each tile is stored: the rows of a
// sample's product are its output channels, so ep.RowBias holds one bias
// per channel, and with it dst is written, not read.
func ConvF32(e *engine.Engine, dst, w, x []float32, n, outC int, g ConvShape, ep Epilogue) {
	k, m := g.K(), g.OH*g.OW
	ap := e.GetPanel(LenA(outC, k))
	defer e.Put(ap)
	packAF32(e, ap, w, outC, k, false, false)
	convUnits(e, x, n, g, func(bp []float32, ni, j0, cols int) {
		mulTiles(dst[ni*outC*m+j0:], m, ap, bp, outC, k, cols, 1, ep)
	})
}

// ConvF16 is ConvF32 with both operands rounded to the float16 grid as
// they are packed (F16's arrangement: f32 accumulation) and each output
// element stored through the grid by its tile store (ep.F16 is implied):
// a bias joins before the rounding, a ReLU follows it.
func ConvF16(e *engine.Engine, dst, w, x []float32, n, outC int, g ConvShape, ep Epilogue) {
	k, m := g.K(), g.OH*g.OW
	ap := e.GetPanel(LenA(outC, k))
	defer e.Put(ap)
	packAF32(e, ap, w, outC, k, false, true)
	ep.F16 = true
	convUnits(e, x, n, g, func(bp []float32, ni, j0, cols int) {
		finishF16(bp, 0, bp, len(bp)/NR, NR)
		mulTilesF16(dst[ni*outC*m+j0:], m, ap, bp, outC, k, cols, 1, ep)
	})
}

// ConvI8 is ConvF32 over int8 levels (I8's arrangement): the weights are
// quantized at sw once, sample ni's patches at sx[ni] — a merged batch
// carries one activation scale per request segment — and each tile is
// dequantized by sw·sx[ni] at its store, before ep.
func ConvI8(e *engine.Engine, dst, w, x []float32, n, outC int, g ConvShape, sw float32, sx []float32, ep Epilogue) {
	k, m := g.K(), g.OH*g.OW
	kp := pairsI8(k)
	mem := e.GetPanel(panelsA(outC) * kp * MR) // kp·2·MR int16 per panel
	defer e.Put(mem)
	ap := view[int16](mem)
	packAI8(e, ap, w, outC, k, false, 1/sw)
	convUnits(e, x, n, g, func(bp []float32, ni, j0, cols int) {
		q, inv := view[int8](bp), 1/sx[ni]
		for jp := range panelsB(cols) {
			i8Pairs(q[jp*kp*2*NR:], bp[jp*k*NR:], k, NR, inv)
		}
		mulPanelsI8(dst[ni*outC*m+j0:], m, ap, q, outC, kp, cols, sw*sx[ni], ep)
	})
}

// ConvGradF32 adds the gradients of dst = conv(x, w) (ConvF32's shapes)
// for the output gradient dy [n,outC,OH,OW] into dx [n,C,H,W] and dw
// [outC,C,KH,KW], in float32; a nil dx or dw skips that half. Per sample,
// with Pₙ the patch matrix of ConvShape, they are two products over the
// forward's blocks of output pixels, and neither stores Pₙ:
//
//	dXₙ += col2im(Wᵀ·dYₙ)  one work unit per sample: Wᵀ is packed once per
//	                       call, each block of dYₙ is packed as B panels
//	                       (PackB), and scatterPatches adds the K×block
//	                       product back into dXₙ, blocks in order
//	dW  += dYₙ·Pₙᵀ          one work unit per NR-column panel of dW: A is
//	                       dYₙ's block (PackA), B its patches
//	                       transposed (PackBConv over the channels the
//	                       columns touch, then PackBT per pixel panel), and
//	                       the unit walks samples and blocks in order
//
// Every gradient element is written by one unit in one order, so the
// result is bitwise the same at any worker count.
func ConvGradF32(e *engine.Engine, dx, dw, w, x, dy []float32, n, outC int, g ConvShape) {
	k, m := g.K(), g.OH*g.OW
	block := min(convBlockPanels(k)*NR, m)
	if dx != nil {
		img := g.C * g.H * g.W
		ap := e.GetPanel(LenA(k, outC))
		defer e.Put(ap)
		packAF32(e, ap, w, k, outC, true, false)
		e.ParallelFor(n, 1, func(n0, n1 int) {
			for ni := n0; ni < n1; ni++ {
				bp, d := e.GetPanel(LenB(outC, block)), e.GetUninit(k*block)
				for j0 := 0; j0 < m; j0 += block {
					cols := min(block, m-j0)
					PackB(bp, dy[ni*outC*m+j0:], outC, cols, m)
					clear(d[:k*cols])
					mulTiles(d, cols, ap, bp, k, outC, cols, 1, Epilogue{})
					scatterPatches(dx[ni*img:(ni+1)*img], d, cols, g, j0, cols)
				}
				e.Put(bp)
				e.Put(d)
			}
		})
	}
	if dw != nil {
		taps, plane := g.KH*g.KW, g.H*g.W
		e.ParallelFor(panelsB(k), 1, func(u0, u1 int) {
			for u := u0; u < u1; u++ {
				// The unit's columns [l0, l1) of dW are rows [off, off+cn)
				// of the patch matrix of channels [c0, c1), whose taps they
				// are.
				l0, l1 := u*NR, min(k, (u+1)*NR)
				sub := g
				c0, c1 := l0/taps, (l1+taps-1)/taps
				sub.C = c1 - c0
				kc, off, cn := sub.K(), l0-c0*taps, l1-l0
				ap, pp, bt := e.GetPanel(LenA(outC, block)), e.GetPanel(LenB(kc, block)), e.GetPanel(LenB(block, cn))
				for ni := range n {
					for j0 := 0; j0 < m; j0 += block {
						cols := min(block, m-j0)
						PackA(ap, dy[ni*outC*m+j0:], outC, cols, m)
						PackBConv(pp, x[(ni*g.C+c0)*plane:(ni*g.C+c1)*plane], sub, j0, cols)
						// Pixel panel jp of pp is a [kc][NR] block of patch
						// rows: the unit's cn of them are the jp-th NR depth
						// rows of its one B panel.
						for jp := 0; jp*NR < cols; jp++ {
							PackBT(bt[jp*NR*NR:], pp[(jp*kc+off)*NR:], min(NR, cols-jp*NR), cn, NR)
						}
						mulTiles(dw[l0:], k, ap, bt, outC, cols, cn, 1, Epilogue{})
					}
				}
				e.Put(ap)
				e.Put(pp)
				e.Put(bt)
			}
		})
	}
}

// addTileF32 stores the valid region of a full MR×NR tile into dst, whose
// rows are ldd elements apart: dst[i0+r][j0+c] += alpha·tile[r][c] (with
// ep.Overwrite, dst[i0+r][j0+c] = 0 + alpha·tile[r][c]; with ep.RowBias,
// dst[i0+r][j0+c] = RowBias[i0+r] + alpha·tile[r][c]), then the rest of
// ep on that sum. It is the only store of every f32, f16 and
// int8 product, and an element's one store is its final value. The sum
// (addTileSum) keeps the shape of the separate pass the bias stands for
// — (dst + alpha·t) + bias — since Go may fuse a multiply feeding an add
// (as on arm64) and must do so alike in both; with F16 the stored sums of
// the tile's rows are then rounded in place, while they are in cache, and
// a ReLU follows the rounding (without F16 the sum's store applies it).
// Multiplying by alpha == 1 is a bitwise identity, so the common unscaled
// call pays one multiply and no branch.
func addTileF32(dst []float32, ldd int, tile *[MR * NR]float32, i0, j0, m, n int, alpha float32, ep *Epilogue) {
	rows, cols := min(MR, m-i0), min(NR, n-j0)
	addTileSum(dst, ldd, tile, i0, j0, rows, cols, alpha, ep, ep.ReLU && !ep.F16)
	if ep.F16 {
		for r := 0; r < rows; r++ {
			dr := dst[(i0+r)*ldd+j0:][:cols]
			precision.RoundF16Slice(dr, dr)
			if ep.ReLU {
				reluInPlace(dr)
			}
		}
	}
}

// zeroRow is the row an overwriting store's sums start from.
var zeroRow [NR]float32

// addTileSum stores a tile's rows × cols region as addTileF32 does,
// without the f16 rounding, and applies the ReLU when relu is set.
func addTileSum(dst []float32, ldd int, tile *[MR * NR]float32, i0, j0, rows, cols int, alpha float32, ep *Epilogue, relu bool) {
	bias, rowBias, over := ep.Bias, ep.RowBias, ep.Overwrite
	if asmKernels && cols == NR && (rowBias != nil || !relu) {
		// Interior tile: two 8-lane multiplies and adds per row, each
		// rounded as the scalar loop below rounds it (and the ReLU of a
		// row-biased store; an accumulating one leaves it to the loop).
		_ = dst[(i0+rows-1)*ldd+j0+NR-1]
		if rowBias != nil {
			storeTileRowAsm(&dst[i0*ldd+j0], int64(ldd), &tile[0], int64(rows), alpha, &rowBias[i0:][:rows][0], relu)
			return
		}
		var bp *float32
		if bias != nil {
			bp = &bias[j0:][:NR][0]
		}
		// The sums start from dst's rows, or from zeroRow's for every row.
		src, lds := &dst[i0*ldd+j0], int64(ldd)
		if over {
			src, lds = &zeroRow[0], 0
		}
		storeTileAsm(&dst[i0*ldd+j0], int64(ldd), src, lds, &tile[0], int64(rows), alpha, bp)
		return
	}
	for r := 0; r < rows; r++ {
		if cols == NR && bias == nil && rowBias == nil && !over && !relu {
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
		sr := dr // the sums' start: dst's row, or zeros
		if over {
			sr = zeroRow[:cols]
		}
		switch {
		case rowBias != nil:
			rb := rowBias[i0+r]
			for c, v := range tr {
				dr[c] = rb + alpha*v
			}
		case bias != nil:
			br := bias[j0:][:cols]
			for c, v := range tr {
				dr[c] = (sr[c] + alpha*v) + br[c]
			}
		default:
			for c, v := range tr {
				dr[c] = sr[c] + alpha*v
			}
		}
		if relu {
			reluInPlace(dr)
		}
	}
}

// reluInPlace clears every element of d whose sign bit is set — max(x, 0)
// for every non-NaN x, and +0 for a NaN with the sign bit set: ops' ReLU.
func reluInPlace(d []float32) {
	for i, x := range d {
		b := math.Float32bits(x)
		d[i] = math.Float32frombits(b &^ uint32(int32(b)>>31))
	}
}
