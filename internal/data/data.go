// Package data provides shape-faithful synthetic multi-modal datasets for
// every MMBench workload. The paper's own dataset-free mode "randomly
// generate[s] the input with the same shape as the datasets"; this package
// implements that and goes one step further: samples carry *planted
// cross-modal structure* so the algorithm-level experiments (Figure 4's
// multi-modal accuracy advantage, Figure 5's per-modality solvability
// mixture) reproduce the paper's qualitative findings.
//
// Each classification sample is assigned a carrier category:
//
//   - CarrierMajor: the label is decodable from the major modality alone;
//   - CarrierMinor: decodable from the secondary modality alone;
//   - CarrierEither: decodable from any modality;
//   - CarrierBoth: the label is split compositionally across modalities
//     (label = (a + b) mod K with a in one modality and b in another), so
//     only a fusing model can decode it.
//
// The mixture fractions default to the paper's Figure 5 measurements
// (≈75–86% major-only, <5% fusion-required).
package data

import (
	"fmt"

	"mmbench/internal/tensor"
)

// Kind distinguishes dense from token modalities.
type Kind int

// Modality kinds.
const (
	Dense Kind = iota
	Tokens
)

// Task is the workload's learning task.
type Task int

// Tasks.
const (
	Classify Task = iota
	MultiLabel
	Regress
	Segment
)

func (t Task) String() string {
	switch t {
	case Classify:
		return "classification"
	case MultiLabel:
		return "multilabel"
	case Regress:
		return "regression"
	case Segment:
		return "segmentation"
	}
	return fmt.Sprintf("Task(%d)", int(t))
}

// Carrier categories for Figure 5's mutually exclusive solvability sets.
const (
	CarrierMajor = iota
	CarrierMinor
	CarrierEither
	CarrierBoth
)

// ModalitySpec describes one modality of a workload.
type ModalitySpec struct {
	Name string
	Kind Kind
	// Shape is the per-sample dense shape (e.g. [1,28,28]); for token
	// modalities it is [T].
	Shape []int
	// Vocab is the vocabulary size for token modalities.
	Vocab int
	// RawBytes is the raw sensor/capture size per sample before
	// preprocessing (drives the end-to-end host-time model).
	RawBytes int64
}

// ElemsPerSample returns the dense element count of one sample.
func (m ModalitySpec) ElemsPerSample() int {
	n := 1
	for _, d := range m.Shape {
		n *= d
	}
	return n
}

// The shape of a run that leaves it open: every layer that resolves a
// request's batch size or eager data seed — RunConfig and its cache
// keys, core.RunOptions, merged-batch members, the batcher's sample
// budget, plan.Compile — reads these two.
const (
	// DefaultBatchSize is the sample count of a run whose batch size is
	// unset (zero or negative).
	DefaultBatchSize = 32
	// DefaultSeed seeds an eager run's data generation when its seed is
	// unset (zero).
	DefaultSeed = 1
)

// Batch is one batch of multi-modal samples.
type Batch struct {
	Size   int
	Dense  map[string]*tensor.Tensor // [B, shape...] per dense modality
	Tokens map[string][][]int        // [B][T] per token modality
	// Labels holds class ids (Classify).
	Labels []int
	// Targets holds multi-label indicators [B,K], regression targets
	// [B,K] or segmentation masks [B,1,H,W].
	Targets *tensor.Tensor
	// Carrier records each sample's carrier category (classification
	// generators only; used by the Figure 5 analysis).
	Carrier []int
	// Abstract marks a shape-only batch (analytic profiling mode).
	Abstract bool
}

// Mixture controls the carrier-category proportions.
type Mixture struct {
	MajorFrac  float64
	MinorFrac  float64
	EitherFrac float64 // remainder is CarrierBoth (fusion-required)
}

// DefaultMixture mirrors the paper's Figure 5: ≈78% major-only, and under
// 5% requiring multi-modal fusion.
func DefaultMixture() Mixture {
	return Mixture{MajorFrac: 0.78, MinorFrac: 0.14, EitherFrac: 0.04}
}

// Generator produces synthetic batches for one workload.
type Generator struct {
	Name    string
	Specs   []ModalitySpec
	Task    Task
	Classes int // class count (Classify/MultiLabel) or target dim (Regress)
	// MajorIdx/MinorIdx are the modalities carrying the planted signal.
	MajorIdx, MinorIdx int
	Mix                Mixture
	// SignalStrength scales prototypes relative to unit noise.
	SignalStrength float32

	protos map[protoKey]*tensor.Tensor // dense class prototypes
	seed   int64
}

type protoKey struct {
	modality int
	class    int
}

// NewGenerator builds a generator with deterministic prototypes.
func NewGenerator(name string, specs []ModalitySpec, task Task, classes int, seed int64) *Generator {
	if len(specs) == 0 {
		panic("data: generator with no modalities")
	}
	g := &Generator{
		Name:           name,
		Specs:          specs,
		Task:           task,
		Classes:        classes,
		MajorIdx:       0,
		MinorIdx:       min(1, len(specs)-1),
		Mix:            DefaultMixture(),
		SignalStrength: 1.4,
		protos:         make(map[protoKey]*tensor.Tensor),
		seed:           seed,
	}
	protoRNG := tensor.NewRNG(seed)
	for mi, spec := range specs {
		if spec.Kind != Dense {
			continue
		}
		for k := 0; k < max(classes, 1); k++ {
			p := tensor.New(spec.Shape...)
			protoRNG.Split(int64(mi*1000+k)).Normal(p, 0, 1)
			g.protos[protoKey{mi, k}] = p
		}
	}
	return g
}

// SpecByName returns the modality spec with the given name.
func (g *Generator) SpecByName(name string) (ModalitySpec, bool) {
	for _, s := range g.Specs {
		if s.Name == name {
			return s, true
		}
	}
	return ModalitySpec{}, false
}

// AbstractBatch returns a shape-only batch of size n for analytic
// profiling — no data is materialized.
func (g *Generator) AbstractBatch(n int) *Batch {
	b := &Batch{Size: n, Dense: map[string]*tensor.Tensor{}, Tokens: map[string][][]int{}, Abstract: true}
	for _, spec := range g.Specs {
		if spec.Kind == Dense {
			shape := append([]int{n}, spec.Shape...)
			b.Dense[spec.Name] = tensor.NewAbstract(shape...)
		}
	}
	return b
}

// Batch generates n concrete samples using the given RNG.
func (g *Generator) Batch(rng *tensor.RNG, n int) *Batch {
	b := &Batch{Size: n, Dense: map[string]*tensor.Tensor{}, Tokens: map[string][][]int{}}
	for _, spec := range g.Specs {
		if spec.Kind == Dense {
			shape := append([]int{n}, spec.Shape...)
			t := tensor.New(shape...)
			rng.Normal(t, 0, 1) // noise floor; signal added below
			b.Dense[spec.Name] = t
		} else {
			rows := make([][]int, n)
			for i := range rows {
				row := make([]int, spec.Shape[0])
				for j := range row {
					row[j] = rng.Intn(spec.Vocab)
				}
				rows[i] = row
			}
			b.Tokens[spec.Name] = rows
		}
	}
	switch g.Task {
	case Classify:
		g.fillClassify(rng, b)
	case MultiLabel:
		g.fillMultiLabel(rng, b)
	case Regress:
		g.fillRegress(rng, b)
	case Segment:
		g.fillSegment(rng, b)
	}
	return b
}

func (g *Generator) drawCarrier(rng *tensor.RNG) int {
	r := rng.Float64()
	switch {
	case r < g.Mix.MajorFrac:
		return CarrierMajor
	case r < g.Mix.MajorFrac+g.Mix.MinorFrac:
		return CarrierMinor
	case r < g.Mix.MajorFrac+g.Mix.MinorFrac+g.Mix.EitherFrac:
		return CarrierEither
	default:
		return CarrierBoth
	}
}

// plant renders class k into sample i of modality mi.
func (g *Generator) plant(rng *tensor.RNG, b *Batch, i, mi, k int, strength float32) {
	spec := g.Specs[mi]
	if spec.Kind == Dense {
		proto := g.protos[protoKey{mi, k}]
		t := b.Dense[spec.Name]
		elems := spec.ElemsPerSample()
		dst := t.Data()[i*elems : (i+1)*elems]
		src := proto.Data()
		for j := range dst {
			dst[j] += strength * src[j]
		}
		return
	}
	// Token modality: overwrite ~60% of positions with the class
	// signature sequence.
	row := b.Tokens[spec.Name][i]
	for j := range row {
		if rng.Float64() < 0.6 {
			row[j] = (k*13 + j*7 + 1) % spec.Vocab
		}
	}
}

func (g *Generator) fillClassify(rng *tensor.RNG, b *Batch) {
	b.Labels = make([]int, b.Size)
	b.Carrier = make([]int, b.Size)
	s := g.SignalStrength
	for i := 0; i < b.Size; i++ {
		y := rng.Intn(g.Classes)
		carrier := g.drawCarrier(rng)
		b.Labels[i] = y
		b.Carrier[i] = carrier
		switch carrier {
		case CarrierMajor:
			g.plant(rng, b, i, g.MajorIdx, y, s)
		case CarrierMinor:
			g.plant(rng, b, i, g.MinorIdx, y, s)
		case CarrierEither:
			for mi := range g.Specs {
				g.plant(rng, b, i, mi, y, s)
			}
		case CarrierBoth:
			// Compositional: y = (a + b) mod K. Neither part alone
			// determines y.
			a := rng.Intn(g.Classes)
			bb := ((y-a)%g.Classes + g.Classes) % g.Classes
			g.plant(rng, b, i, g.MajorIdx, a, s)
			g.plant(rng, b, i, g.MinorIdx, bb, s)
		}
	}
}

func (g *Generator) fillMultiLabel(rng *tensor.RNG, b *Batch) {
	b.Labels = make([]int, b.Size)
	b.Carrier = make([]int, b.Size)
	b.Targets = tensor.New(b.Size, g.Classes)
	s := g.SignalStrength
	for i := 0; i < b.Size; i++ {
		primary := rng.Intn(g.Classes)
		b.Labels[i] = primary
		b.Targets.Set(1, i, primary)
		// A correlated secondary genre, as movie genres co-occur.
		if rng.Float64() < 0.5 {
			b.Targets.Set(1, i, (primary+7)%g.Classes)
		}
		carrier := g.drawCarrier(rng)
		b.Carrier[i] = carrier
		switch carrier {
		case CarrierMajor:
			g.plant(rng, b, i, g.MajorIdx, primary, s)
		case CarrierMinor:
			g.plant(rng, b, i, g.MinorIdx, primary, s)
		case CarrierEither:
			for mi := range g.Specs {
				g.plant(rng, b, i, mi, primary, s)
			}
		case CarrierBoth:
			a := rng.Intn(g.Classes)
			bb := ((primary-a)%g.Classes + g.Classes) % g.Classes
			g.plant(rng, b, i, g.MajorIdx, a, s)
			g.plant(rng, b, i, g.MinorIdx, bb, s)
		}
	}
}

// fillRegress plants a latent vector split across modalities; the target
// mixes both halves, so unimodal models face an irreducible error floor.
func (g *Generator) fillRegress(rng *tensor.RNG, b *Batch) {
	k := g.Classes
	b.Targets = tensor.New(b.Size, k)
	s := g.SignalStrength
	for i := 0; i < b.Size; i++ {
		u1 := float32(rng.Norm())
		u2 := float32(rng.Norm())
		// Render u1 into the major modality, u2 into the minor one,
		// using class-0/1 prototypes as basis directions.
		g.plantScaled(b, i, g.MajorIdx, 0, s*u1)
		g.plantScaled(b, i, g.MinorIdx, 0, s*u2)
		for j := 0; j < k; j++ {
			w1 := float32(0.7)
			w2 := float32(0.7)
			if j%2 == 1 {
				w1, w2 = 0.9, 0.5
			}
			b.Targets.Set(w1*u1+w2*u2, i, j)
		}
	}
}

// plantScaled adds scale·proto_k to dense sample i of modality mi.
func (g *Generator) plantScaled(b *Batch, i, mi, k int, scale float32) {
	spec := g.Specs[mi]
	if spec.Kind != Dense {
		return
	}
	proto := g.protos[protoKey{mi, k}]
	elems := spec.ElemsPerSample()
	dst := b.Dense[spec.Name].Data()[i*elems : (i+1)*elems]
	for j := range dst {
		dst[j] += scale * proto.Data()[j]
	}
}

// fillSegment plants a "tumor" that is the union of two independent
// rectangular compartments. The first half of the MRI contrasts sees only
// the first compartment and the second half only the second (mirroring how
// T1/T1c highlight enhancing tumor while T2/Flair highlight edema), so a
// single-contrast model has a hard recall ceiling while a fusing model can
// segment the whole region.
func (g *Generator) fillSegment(rng *tensor.RNG, b *Batch) {
	spec := g.Specs[0]
	h := spec.Shape[len(spec.Shape)-2]
	w := spec.Shape[len(spec.Shape)-1]
	b.Targets = tensor.New(b.Size, 1, h, w)
	half := (len(g.Specs) + 1) / 2

	type rect struct{ y0, x0, y1, x1 int }
	randRect := func() rect {
		rh := h/4 + rng.Intn(h/4)
		rw := w/4 + rng.Intn(w/4)
		y := rng.Intn(h - rh)
		x := rng.Intn(w - rw)
		return rect{y, x, y + rh, x + rw}
	}

	for i := 0; i < b.Size; i++ {
		compartments := []rect{randRect(), randRect()}
		for _, r := range compartments {
			for y := r.y0; y < r.y1; y++ {
				for x := r.x0; x < r.x1; x++ {
					b.Targets.Set(1, i, 0, y, x)
				}
			}
		}
		for mi, mspec := range g.Specs {
			if mspec.Kind != Dense {
				continue
			}
			r := compartments[0]
			if mi >= half {
				r = compartments[1]
			}
			gain := g.SignalStrength * (0.8 + 0.2*float32(mi%2))
			elems := mspec.ElemsPerSample()
			ch := mspec.Shape[0]
			dst := b.Dense[mspec.Name].Data()[i*elems : (i+1)*elems]
			for c := 0; c < ch; c++ {
				for y := r.y0; y < r.y1; y++ {
					for x := r.x0; x < r.x1; x++ {
						dst[(c*h+y)*w+x] += gain
					}
				}
			}
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
