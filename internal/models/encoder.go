// Package models implements the encoder and head networks of MMBench's
// nine workloads (Table 3): LeNet, VGG, ResNet, DenseNet, U-Net stems,
// transformer text encoders (ALBERT/BERT/RoBERTa-lite), the MLP/LSTM
// feature encoders that stand in for OpenFace/Librosa pipelines, and the
// task heads (classification, regression, segmentation decoding, waypoint
// prediction).
package models

import (
	"fmt"

	"mmbench/internal/autograd"
	"mmbench/internal/nn"
	"mmbench/internal/ops"
	"mmbench/internal/tensor"
)

// Input is one modality's batch input: dense tensor or token ids.
type Input struct {
	// Dense is the dense input [B, ...] for image/audio/sensor
	// modalities; abstract in analytic mode.
	Dense *ops.Var
	// Tokens holds token ids for text modalities.
	Tokens [][]int
	// Abstract marks analytic execution for token modalities (Dense
	// modalities carry abstractness in the tensor itself); B and T give
	// the batch and sequence length.
	Abstract bool
	B, T     int
}

// Batch returns the input's batch size.
func (in Input) Batch() int {
	if in.Dense != nil {
		return in.Dense.Value.Dim(0)
	}
	if in.Abstract {
		return in.B
	}
	return len(in.Tokens)
}

// Encoder maps one modality's input to a feature vector [B, OutDim].
type Encoder interface {
	Encode(c *ops.Ctx, in Input) *ops.Var
	OutDim() int
	Params() []*ops.Var
}

// denseInput asserts the modality is dense.
func denseInput(in Input, who string) *ops.Var {
	if in.Dense == nil {
		panic(fmt.Sprintf("models: %s needs a dense input", who))
	}
	return in.Dense
}

// MLPEncoder encodes a flat dense modality with an MLP.
type MLPEncoder struct {
	net *nn.Sequential
	out int
}

// NewMLPEncoder builds an MLP encoder over the given widths; the last
// width is the feature dimension.
func NewMLPEncoder(g *tensor.RNG, widths ...int) *MLPEncoder {
	return &MLPEncoder{net: nn.MLP(g, widths...), out: widths[len(widths)-1]}
}

// Encode implements Encoder. Rank > 2 inputs are flattened first.
func (e *MLPEncoder) Encode(c *ops.Ctx, in Input) *ops.Var {
	x := denseInput(in, "MLPEncoder")
	if x.Value.Rank() > 2 {
		x = c.Flatten(x)
	}
	return e.net.Forward(c, x)
}

// OutDim implements Encoder.
func (e *MLPEncoder) OutDim() int { return e.out }

// Params implements Encoder.
func (e *MLPEncoder) Params() []*ops.Var { return e.net.Params() }

// LSTMEncoder encodes a [B,T,F] dense sequence with an LSTM, standing in
// for the OpenFace/Librosa sequence feature pipelines of CMU-MOSEI and
// MUStARD.
type LSTMEncoder struct {
	lstm *nn.LSTM
	out  int
}

// NewLSTMEncoder builds an LSTM encoder with hidden width = feature width.
func NewLSTMEncoder(g *tensor.RNG, inDim, outDim int) *LSTMEncoder {
	return &LSTMEncoder{lstm: nn.NewLSTM(g, inDim, outDim), out: outDim}
}

// Encode implements Encoder.
func (e *LSTMEncoder) Encode(c *ops.Ctx, in Input) *ops.Var {
	return e.lstm.Forward(c, denseInput(in, "LSTMEncoder"))
}

// OutDim implements Encoder.
func (e *LSTMEncoder) OutDim() int { return e.out }

// Params implements Encoder.
func (e *LSTMEncoder) Params() []*ops.Var { return e.lstm.Params() }

// CNNEncoder is a compact convolutional encoder (conv-ReLU-pool blocks then
// a projection), used for image modalities in trainable workload variants
// and the robotics workloads.
type CNNEncoder struct {
	net *nn.Sequential
	out int
}

// NewCNNEncoder builds a CNN over inC×h×w inputs with the given channel
// progression (one conv-relu-pool block per width) and output feature dim.
func NewCNNEncoder(g *tensor.RNG, inC, h, w int, channels []int, outDim int) *CNNEncoder {
	net := nn.NewSequential()
	c := inC
	for i, ch := range channels {
		net.Append(nn.NewConv2DReLU(g.Split(int64(i)), c, ch, 3, 1, 1), nn.MaxPool(2))
		c = ch
		h, w = h/2, w/2
		if h == 0 || w == 0 {
			panic("models: CNNEncoder pooled to zero spatial size")
		}
	}
	net.Append(nn.Flatten(), nn.NewLinear(g.Split(99), c*h*w, outDim), nn.ReLU())
	return &CNNEncoder{net: net, out: outDim}
}

// Encode implements Encoder.
func (e *CNNEncoder) Encode(c *ops.Ctx, in Input) *ops.Var {
	return e.net.Forward(c, denseInput(in, "CNNEncoder"))
}

// OutDim implements Encoder.
func (e *CNNEncoder) OutDim() int { return e.out }

// Params implements Encoder.
func (e *CNNEncoder) Params() []*ops.Var { return e.net.Params() }

// LeNet is the classic 5-layer LeNet used by AV-MNIST for both the image
// and the spectrogram modality.
type LeNet struct {
	net *nn.Sequential
	out int
}

// NewLeNet builds LeNet-5 over inC×h×w inputs.
func NewLeNet(g *tensor.RNG, inC, h, w, outDim int) *LeNet {
	h1, w1 := h/2, w/2
	h2, w2 := (h1-4)/2, (w1-4)/2 // conv 5×5 valid, then pool
	if h2 <= 0 || w2 <= 0 {
		panic(fmt.Sprintf("models: LeNet input %dx%d too small", h, w))
	}
	net := nn.NewSequential(
		nn.NewConv2DReLU(g.Split(1), inC, 6, 5, 1, 2),
		nn.MaxPool(2),
		nn.NewConv2DReLU(g.Split(2), 6, 16, 5, 1, 0),
		nn.MaxPool(2),
		nn.Flatten(),
		nn.NewLinear(g.Split(3), 16*h2*w2, 120),
		nn.ReLU(),
		nn.NewLinear(g.Split(4), 120, outDim),
		nn.ReLU(),
	)
	return &LeNet{net: net, out: outDim}
}

// Encode implements Encoder.
func (e *LeNet) Encode(c *ops.Ctx, in Input) *ops.Var {
	return e.net.Forward(c, denseInput(in, "LeNet"))
}

// OutDim implements Encoder.
func (e *LeNet) OutDim() int { return e.out }

// Params implements Encoder.
func (e *LeNet) Params() []*ops.Var { return e.net.Params() }

// zerosLike returns a zero Var matching the abstractness of ref.
func zerosLike(ref *ops.Var, shape ...int) *ops.Var {
	if ref != nil && ref.Value.Abstract() {
		return autograd.NewVar(tensor.NewAbstract(shape...))
	}
	return autograd.NewVar(tensor.New(shape...))
}

// LeNetGAP is the profile flavour of LeNet whose convolutional features
// are reduced by global average pooling before the classifier projection —
// the reduce-kernel-bearing variant used for the paper's Figure 9 hotspot
// analysis.
type LeNetGAP struct {
	net *nn.Sequential
	out int
}

// NewLeNetGAP builds a LeNet with a global-average-pooled feature stage.
func NewLeNetGAP(g *tensor.RNG, inC, h, w, outDim int) *LeNetGAP {
	if h/2 <= 4 || w/2 <= 4 {
		panic(fmt.Sprintf("models: LeNetGAP input %dx%d too small", h, w))
	}
	net := nn.NewSequential(
		nn.NewConv2DReLU(g.Split(1), inC, 6, 5, 1, 2),
		nn.MaxPool(2),
		nn.NewConv2DReLU(g.Split(2), 6, 16, 5, 1, 0),
		nn.GlobalAvgPool(),
		nn.NewLinear(g.Split(3), 16, 120),
		nn.ReLU(),
		nn.NewLinear(g.Split(4), 120, outDim),
		nn.ReLU(),
	)
	return &LeNetGAP{net: net, out: outDim}
}

// Encode implements Encoder.
func (e *LeNetGAP) Encode(c *ops.Ctx, in Input) *ops.Var {
	return e.net.Forward(c, denseInput(in, "LeNetGAP"))
}

// OutDim implements Encoder.
func (e *LeNetGAP) OutDim() int { return e.out }

// Params implements Encoder.
func (e *LeNetGAP) Params() []*ops.Var { return e.net.Params() }
