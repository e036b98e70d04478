package data

import (
	"fmt"

	"mmbench/internal/tensor"
)

// ConcatBatches concatenates request batches along the sample dimension,
// in order, producing the merged batch a continuous cross-request
// forward runs on. Every batch must be concrete (eager) and carry the
// same modality set with identical per-sample shapes — guaranteed when
// the batches come from the same workload generator, which is the only
// way the batcher groups requests.
func ConcatBatches(batches []*Batch) (*Batch, error) { return ConcatBatchesIn(nil, batches) }

// ConcatBatchesIn is ConcatBatches with the merged Dense and Targets
// tensors drawn from alloc (the heap when nil). A single batch is
// returned as it is.
func ConcatBatchesIn(alloc Alloc, batches []*Batch) (*Batch, error) {
	if len(batches) == 0 {
		return nil, fmt.Errorf("data: ConcatBatches needs at least one batch")
	}
	if len(batches) == 1 {
		return batches[0], nil
	}
	first := batches[0]
	out := &Batch{}
	for _, b := range batches {
		if b.Abstract {
			return nil, fmt.Errorf("data: ConcatBatches requires concrete batches")
		}
		out.Size += b.Size
	}
	if len(first.Dense) > 0 {
		out.Dense = make(map[string]*tensor.Tensor, len(first.Dense))
		for name := range first.Dense {
			t, err := concatDim0(alloc, batches, name, func(b *Batch) *tensor.Tensor { return b.Dense[name] })
			if err != nil {
				return nil, err
			}
			out.Dense[name] = t
		}
	}
	if len(first.Tokens) > 0 {
		out.Tokens = make(map[string][][]int, len(first.Tokens))
		for name := range first.Tokens {
			var seqs [][]int
			for _, b := range batches {
				s, ok := b.Tokens[name]
				if !ok {
					return nil, fmt.Errorf("data: ConcatBatches token modality %q missing from a member", name)
				}
				seqs = append(seqs, s...)
			}
			out.Tokens[name] = seqs
		}
	}
	if first.Labels != nil {
		for _, b := range batches {
			out.Labels = append(out.Labels, b.Labels...)
		}
	}
	if first.Targets != nil {
		t, err := concatDim0(alloc, batches, "targets", func(b *Batch) *tensor.Tensor { return b.Targets })
		if err != nil {
			return nil, err
		}
		out.Targets = t
	}
	if first.Carrier != nil {
		for _, b := range batches {
			out.Carrier = append(out.Carrier, b.Carrier...)
		}
	}
	return out, nil
}

// concatDim0 stacks one named tensor of every batch along dim 0, into
// memory from alloc. The trailing (per-sample) dims must agree.
func concatDim0(alloc Alloc, batches []*Batch, name string, get func(*Batch) *tensor.Tensor) (*tensor.Tensor, error) {
	first := get(batches[0])
	if first == nil {
		return nil, fmt.Errorf("data: ConcatBatches tensor %q missing from a member", name)
	}
	rest := first.Shape()[1:]
	dim0 := 0
	for _, b := range batches {
		t := get(b)
		if t == nil {
			return nil, fmt.Errorf("data: ConcatBatches tensor %q missing from a member", name)
		}
		ts := t.Shape()
		if len(ts) != len(rest)+1 {
			return nil, fmt.Errorf("data: ConcatBatches tensor %q rank mismatch", name)
		}
		for i, d := range rest {
			if ts[i+1] != d {
				return nil, fmt.Errorf("data: ConcatBatches tensor %q per-sample shape mismatch", name)
			}
		}
		dim0 += ts[0]
	}
	shape := append([]int{dim0}, rest...)
	out := newTensor(alloc, true, shape...) // every element is copied
	od := out.Data()
	off := 0
	for _, b := range batches {
		src := get(b).Data()
		copy(od[off:off+len(src)], src)
		off += len(src)
	}
	return out, nil
}
