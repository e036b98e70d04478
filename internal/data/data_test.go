package data

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"testing/quick"

	"mmbench/internal/tensor"
)

func testSpecs() []ModalitySpec {
	return []ModalitySpec{
		{Name: "image", Kind: Dense, Shape: []int{1, 8, 8}, RawBytes: 128},
		{Name: "text", Kind: Tokens, Shape: []int{6}, Vocab: 50, RawBytes: 64},
	}
}

func TestBatchShapes(t *testing.T) {
	gen := NewGenerator("test", testSpecs(), Classify, 4, 1)
	b := gen.Batch(tensor.NewRNG(2), 10)
	if b.Size != 10 {
		t.Fatalf("batch size %d", b.Size)
	}
	img := b.Dense["image"]
	if s := img.Shape(); s[0] != 10 || s[1] != 1 || s[2] != 8 || s[3] != 8 {
		t.Fatalf("image shape %v", s)
	}
	toks := b.Tokens["text"]
	if len(toks) != 10 || len(toks[0]) != 6 {
		t.Fatalf("token shape %d x %d", len(toks), len(toks[0]))
	}
	for _, row := range toks {
		for _, id := range row {
			if id < 0 || id >= 50 {
				t.Fatalf("token id %d outside vocab", id)
			}
		}
	}
	if len(b.Labels) != 10 || len(b.Carrier) != 10 {
		t.Fatalf("labels/carriers %d/%d", len(b.Labels), len(b.Carrier))
	}
	for _, y := range b.Labels {
		if y < 0 || y >= 4 {
			t.Fatalf("label %d out of range", y)
		}
	}
}

func TestDeterminism(t *testing.T) {
	g1 := NewGenerator("t", testSpecs(), Classify, 4, 7)
	g2 := NewGenerator("t", testSpecs(), Classify, 4, 7)
	b1 := g1.Batch(tensor.NewRNG(3), 5)
	b2 := g2.Batch(tensor.NewRNG(3), 5)
	for i := range b1.Dense["image"].Data() {
		if b1.Dense["image"].Data()[i] != b2.Dense["image"].Data()[i] {
			t.Fatal("same seeds produced different dense data")
		}
	}
	for i := range b1.Labels {
		if b1.Labels[i] != b2.Labels[i] {
			t.Fatal("same seeds produced different labels")
		}
	}
}

func TestAbstractBatch(t *testing.T) {
	gen := NewGenerator("t", testSpecs(), Classify, 4, 1)
	b := gen.AbstractBatch(16)
	if !b.Abstract {
		t.Fatal("abstract batch not marked")
	}
	if !b.Dense["image"].Abstract() {
		t.Fatal("dense tensor not abstract")
	}
	if s := b.Dense["image"].Shape(); s[0] != 16 {
		t.Fatalf("abstract batch dim %v", s)
	}
	if len(b.Tokens) != 0 {
		t.Fatal("abstract batch materialized tokens")
	}
}

func TestCarrierMixtureProportions(t *testing.T) {
	gen := NewGenerator("t", testSpecs(), Classify, 4, 1)
	gen.Mix = Mixture{MajorFrac: 0.7, MinorFrac: 0.2, EitherFrac: 0.05}
	b := gen.Batch(tensor.NewRNG(5), 4000)
	var counts [4]int
	for _, c := range b.Carrier {
		counts[c]++
	}
	frac := func(i int) float64 { return float64(counts[i]) / 4000 }
	if math.Abs(frac(CarrierMajor)-0.7) > 0.03 {
		t.Errorf("major frac %f, want ≈0.7", frac(CarrierMajor))
	}
	if math.Abs(frac(CarrierMinor)-0.2) > 0.03 {
		t.Errorf("minor frac %f, want ≈0.2", frac(CarrierMinor))
	}
	if math.Abs(frac(CarrierBoth)-0.05) > 0.02 {
		t.Errorf("both frac %f, want ≈0.05", frac(CarrierBoth))
	}
}

// The planted signal must be linearly decodable from the carrier modality:
// the class prototype should correlate far more with carrier samples than
// non-carrier samples.
func TestPlantedSignalDecodable(t *testing.T) {
	gen := NewGenerator("t", testSpecs(), Classify, 4, 1)
	gen.Mix = Mixture{MajorFrac: 1.0} // all samples carried by image
	b := gen.Batch(tensor.NewRNG(6), 200)
	proto := gen.proto(0, 0)
	elems := testSpecs()[0].ElemsPerSample()
	var withSignal, without float64
	var nw, nwo int
	for i := 0; i < 200; i++ {
		var dot float64
		x := b.Dense["image"].Data()[i*elems : (i+1)*elems]
		for j := range x {
			dot += float64(x[j]) * float64(proto.Data()[j])
		}
		if b.Labels[i] == 0 {
			withSignal += dot
			nw++
		} else {
			without += dot
			nwo++
		}
	}
	if nw == 0 || nwo == 0 {
		t.Skip("degenerate label draw")
	}
	if withSignal/float64(nw) <= without/float64(nwo)+1 {
		t.Errorf("class-0 prototype correlation %f not separated from others %f",
			withSignal/float64(nw), without/float64(nwo))
	}
}

func TestRegressTargets(t *testing.T) {
	specs := []ModalitySpec{
		{Name: "a", Kind: Dense, Shape: []int{4, 4}},
		{Name: "b", Kind: Dense, Shape: []int{4, 4}},
	}
	gen := NewGenerator("r", specs, Regress, 3, 2)
	b := gen.Batch(tensor.NewRNG(7), 12)
	if s := b.Targets.Shape(); s[0] != 12 || s[1] != 3 {
		t.Fatalf("regress targets %v", s)
	}
	if b.Targets.MaxAbs() == 0 {
		t.Fatal("regression targets all zero")
	}
}

func TestSegmentMasks(t *testing.T) {
	specs := []ModalitySpec{
		{Name: "t1", Kind: Dense, Shape: []int{1, 16, 16}},
		{Name: "t2", Kind: Dense, Shape: []int{1, 16, 16}},
	}
	gen := NewGenerator("s", specs, Segment, 1, 3)
	b := gen.Batch(tensor.NewRNG(8), 4)
	if s := b.Targets.Shape(); s[0] != 4 || s[1] != 1 || s[2] != 16 || s[3] != 16 {
		t.Fatalf("mask shape %v", s)
	}
	var ones float64
	for _, v := range b.Targets.Data() {
		if v != 0 && v != 1 {
			t.Fatalf("mask value %v not binary", v)
		}
		ones += float64(v)
	}
	frac := ones / float64(b.Targets.Size())
	if frac < 0.02 || frac > 0.6 {
		t.Fatalf("mask coverage %f implausible", frac)
	}
}

func TestMultiLabelTargets(t *testing.T) {
	gen := NewGenerator("ml", testSpecs(), MultiLabel, 8, 4)
	b := gen.Batch(tensor.NewRNG(9), 50)
	if s := b.Targets.Shape(); s[0] != 50 || s[1] != 8 {
		t.Fatalf("multilabel targets %v", s)
	}
	for i := 0; i < 50; i++ {
		var pos int
		for j := 0; j < 8; j++ {
			if b.Targets.At(i, j) == 1 {
				pos++
			}
		}
		if pos < 1 || pos > 2 {
			t.Fatalf("sample %d has %d positives", i, pos)
		}
	}
}

// Property: generated labels always within range and dense data finite.
func TestGeneratorBoundsProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		size := int(n%16) + 1
		gen := NewGenerator("p", testSpecs(), Classify, 5, seed)
		b := gen.Batch(tensor.NewRNG(seed+1), size)
		for _, y := range b.Labels {
			if y < 0 || y >= 5 {
				return false
			}
		}
		for _, v := range b.Dense["image"].Data() {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestSpecByName(t *testing.T) {
	gen := NewGenerator("t", testSpecs(), Classify, 4, 1)
	if _, ok := gen.SpecByName("image"); !ok {
		t.Fatal("image spec missing")
	}
	if _, ok := gen.SpecByName("nope"); ok {
		t.Fatal("bogus spec found")
	}
}

func TestTaskString(t *testing.T) {
	if Classify.String() != "classification" || Segment.String() != "segmentation" {
		t.Fatalf("task strings: %v %v", Classify, Segment)
	}
}

// TestAbstractBatchDrawsNoPrototype pins that an analytic run's generator
// holds no class prototype: NewGenerator and AbstractBatch allocate less
// than one prototype's bytes, and the first Batch draws them all.
func TestAbstractBatchDrawsNoPrototype(t *testing.T) {
	specs := []ModalitySpec{
		{Name: "image", Kind: Dense, Shape: []int{3, 64, 64}},
		{Name: "lidar", Kind: Dense, Shape: []int{2, 64, 64}},
	}
	const protoBytes = 4 * 2 * 64 * 64 // the smaller modality's
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	gen := NewGenerator("lazy", specs, Regress, 8, 5)
	for n := 1; n <= 4; n++ {
		gen.AbstractBatch(n)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= protoBytes {
		t.Errorf("NewGenerator and AbstractBatch allocated %d B, a prototype is %d B", got, protoBytes)
	}
	if gen.protos != nil {
		t.Fatalf("AbstractBatch drew %d prototypes", len(gen.protos))
	}
	gen.Batch(tensor.NewRNG(1), 2)
	if len(gen.protos) != 2*8 {
		t.Fatalf("the first Batch drew %d prototypes, want %d", len(gen.protos), 2*8)
	}
}

// poisonAlloc is an arena stand-in: AllocUninit hands out NaN-filled
// memory, as a debug engine's poisoned slabs do, Alloc zeroed memory, and
// both count the floats served.
type poisonAlloc struct{ served int }

func (a *poisonAlloc) AllocUninit(n int) []float32 {
	a.served += n
	buf := make([]float32, n)
	for i := range buf {
		buf[i] = float32(math.NaN())
	}
	return buf
}

func (a *poisonAlloc) Alloc(n int) []float32 {
	buf := a.AllocUninit(n)
	clear(buf)
	return buf
}

func wantSameTensor(t *testing.T, what string, got, want *tensor.Tensor) {
	t.Helper()
	if (got == nil) != (want == nil) {
		t.Fatalf("%s: got %v, want %v", what, got, want)
	}
	if got == nil {
		return
	}
	if !tensor.SameShape(got, want) {
		t.Fatalf("%s: shape %v, want %v", what, got.Shape(), want.Shape())
	}
	for i, v := range got.Data() {
		if math.Float32bits(v) != math.Float32bits(want.Data()[i]) {
			t.Fatalf("%s[%d] = %g, want %g", what, i, v, want.Data()[i])
		}
	}
}

func wantSameBatch(t *testing.T, what string, got, want *Batch) {
	t.Helper()
	if got.Size != want.Size || len(got.Dense) != len(want.Dense) || len(got.Tokens) != len(want.Tokens) {
		t.Fatalf("%s: size %d with %d dense and %d token modalities, want %d, %d and %d",
			what, got.Size, len(got.Dense), len(got.Tokens), want.Size, len(want.Dense), len(want.Tokens))
	}
	for name, w := range want.Dense {
		wantSameTensor(t, what+" "+name, got.Dense[name], w)
	}
	wantSameTensor(t, what+" targets", got.Targets, want.Targets)
	for name, w := range want.Tokens {
		if fmt.Sprint(got.Tokens[name]) != fmt.Sprint(w) {
			t.Fatalf("%s: tokens %q differ", what, name)
		}
	}
	if fmt.Sprint(got.Labels, got.Carrier) != fmt.Sprint(want.Labels, want.Carrier) {
		t.Fatalf("%s: labels or carriers differ", what)
	}
}

// TestBatchInMatchesBatch pins BatchIn and ConcatBatchesIn to Batch and
// ConcatBatches bit for bit, for every task, with every float32 tensor
// (dense modalities and Targets) drawn from the allocation source and
// the uninitialised draws NaN-poisoned, so an element the generator
// reads before writing shows up.
func TestBatchInMatchesBatch(t *testing.T) {
	images := []ModalitySpec{
		{Name: "t1", Kind: Dense, Shape: []int{2, 12, 12}},
		{Name: "t2", Kind: Dense, Shape: []int{1, 12, 12}},
	}
	for _, task := range []Task{Classify, MultiLabel, Regress, Segment} {
		specs := testSpecs()
		if task == Segment {
			specs = images
		}
		gen := NewGenerator("in", specs, task, 6, 3)
		floats := func(b *Batch) int {
			n := 0
			for _, d := range b.Dense {
				n += d.Size()
			}
			if b.Targets != nil {
				n += b.Targets.Size()
			}
			return n
		}
		var alloc poisonAlloc
		var heap, in []*Batch
		for i, size := range []int{3, 5} {
			want := gen.Batch(tensor.NewRNG(int64(10+i)), size)
			got := gen.BatchIn(&alloc, tensor.NewRNG(int64(10+i)), size)
			wantSameBatch(t, fmt.Sprintf("%v BatchIn b%d", task, size), got, want)
			heap, in = append(heap, want), append(in, got)
		}
		if want := floats(heap[0]) + floats(heap[1]); alloc.served != want {
			t.Fatalf("%v: the allocation source served %d floats, the batches hold %d", task, alloc.served, want)
		}
		want, err := ConcatBatches(heap)
		if err != nil {
			t.Fatal(err)
		}
		alloc.served = 0
		got, err := ConcatBatchesIn(&alloc, in)
		if err != nil {
			t.Fatal(err)
		}
		wantSameBatch(t, fmt.Sprintf("%v ConcatBatchesIn", task), got, want)
		if alloc.served != floats(want) {
			t.Fatalf("%v: ConcatBatchesIn drew %d floats, the merged batch holds %d", task, alloc.served, floats(want))
		}
	}
}
