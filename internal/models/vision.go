package models

import (
	"fmt"

	"mmbench/internal/nn"
	"mmbench/internal/ops"
	"mmbench/internal/tensor"
)

// VGG is a VGG-style encoder (MM-IMDB's image branch). The configuration
// lists channel widths with -1 denoting a 2×2 max-pool; batch norm can be
// enabled for the paper-scale profiling variant.
type VGG struct {
	net *nn.Sequential
	out int
}

// VGG11Config is the standard VGG-11 layer configuration.
func VGG11Config() []int {
	return []int{64, -1, 128, -1, 256, 256, -1, 512, 512, -1, 512, 512, -1}
}

// NewVGG builds a VGG encoder over inC×h×w inputs.
func NewVGG(g *tensor.RNG, inC, h, w int, cfg []int, withBN bool, outDim int) *VGG {
	net := nn.NewSequential()
	c := inC
	for i, width := range cfg {
		if width == -1 {
			net.Append(nn.MaxPool(2))
			h, w = h/2, w/2
			if h == 0 || w == 0 {
				panic("models: VGG pooled to zero spatial size")
			}
			continue
		}
		if withBN {
			net.Append(nn.NewConv2D(g.Split(int64(i)), c, width, 3, 1, 1), nn.NewBatchNorm2D(width), nn.ReLU())
		} else {
			net.Append(nn.NewConv2DReLU(g.Split(int64(i)), c, width, 3, 1, 1))
		}
		c = width
	}
	net.Append(nn.Flatten(), nn.NewLinear(g.Split(1000), c*h*w, outDim), nn.ReLU())
	return &VGG{net: net, out: outDim}
}

// Encode implements Encoder.
func (e *VGG) Encode(c *ops.Ctx, in Input) *ops.Var {
	return e.net.Forward(c, denseInput(in, "VGG"))
}

// OutDim implements Encoder.
func (e *VGG) OutDim() int { return e.out }

// Params implements Encoder.
func (e *VGG) Params() []*ops.Var { return e.net.Params() }

// residualBlock is a ResNet basic block: two 3×3 convs with an identity or
// projection skip connection.
type residualBlock struct {
	conv1, conv2 *nn.Conv2D
	bn1, bn2     *nn.BatchNorm2D
	proj         *nn.Conv2D // nil for identity skip
	withBN       bool
}

func newResidualBlock(g *tensor.RNG, inC, outC, stride int, withBN bool) *residualBlock {
	b := &residualBlock{
		conv1:  nn.NewConv2D(g.Split(1), inC, outC, 3, stride, 1),
		conv2:  nn.NewConv2D(g.Split(2), outC, outC, 3, 1, 1),
		withBN: withBN,
	}
	// Without batch norm conv1's output feeds only the ReLU.
	b.conv1.ReLU = !withBN
	if withBN {
		b.bn1 = nn.NewBatchNorm2D(outC)
		b.bn2 = nn.NewBatchNorm2D(outC)
	}
	if inC != outC || stride != 1 {
		b.proj = nn.NewConv2D(g.Split(3), inC, outC, 1, stride, 0)
	}
	return b
}

func (b *residualBlock) Forward(c *ops.Ctx, x *ops.Var) *ops.Var {
	h := b.conv1.Forward(c, x)
	if b.withBN {
		h = c.ReLU(b.bn1.Forward(c, h))
	}
	h = b.conv2.Forward(c, h)
	if b.withBN {
		h = b.bn2.Forward(c, h)
	}
	skip := x
	if b.proj != nil {
		skip = b.proj.Forward(c, x)
	}
	return c.ReLU(c.Add(h, skip))
}

func (b *residualBlock) Params() []*ops.Var {
	ps := append(b.conv1.Params(), b.conv2.Params()...)
	if b.withBN {
		ps = append(ps, b.bn1.Params()...)
		ps = append(ps, b.bn2.Params()...)
	}
	if b.proj != nil {
		ps = append(ps, b.proj.Params()...)
	}
	return ps
}

// ResNet is a basic-block residual encoder (TransFuser's image and LiDAR
// branches).
type ResNet struct {
	stem   *nn.Conv2D
	stemBN *nn.BatchNorm2D
	blocks []*residualBlock
	lin    *nn.Linear
	out    int
	withBN bool
}

// NewResNet builds a residual encoder over inC×h×w inputs. stages gives
// the number of blocks per stage; widths the channel count per stage
// (stage transitions use stride 2).
func NewResNet(g *tensor.RNG, inC, h, w int, stages, widths []int, withBN bool, outDim int) *ResNet {
	if len(stages) != len(widths) {
		panic(fmt.Sprintf("models: ResNet stages %v vs widths %v", stages, widths))
	}
	r := &ResNet{
		stem:   nn.NewConv2D(g.Split(7), inC, widths[0], 3, 1, 1),
		lin:    nn.NewLinear(g.Split(8), widths[len(widths)-1], outDim),
		out:    outDim,
		withBN: withBN,
	}
	if withBN {
		r.stemBN = nn.NewBatchNorm2D(widths[0])
	} else {
		r.stem.ReLU = true
	}
	c := widths[0]
	for si, n := range stages {
		for bi := 0; bi < n; bi++ {
			stride := 1
			if bi == 0 && si > 0 {
				stride = 2
			}
			r.blocks = append(r.blocks, newResidualBlock(g.Split(int64(100+10*si+bi)), c, widths[si], stride, withBN))
			c = widths[si]
		}
	}
	return r
}

// Encode implements Encoder.
func (e *ResNet) Encode(c *ops.Ctx, in Input) *ops.Var {
	x := e.stem.Forward(c, denseInput(in, "ResNet"))
	if e.withBN {
		x = c.ReLU(e.stemBN.Forward(c, x))
	}
	for _, b := range e.blocks {
		x = b.Forward(c, x)
	}
	return c.ReLU(e.lin.Forward(c, c.GlobalAvgPool2D(x)))
}

// OutDim implements Encoder.
func (e *ResNet) OutDim() int { return e.out }

// Params implements Encoder.
func (e *ResNet) Params() []*ops.Var {
	ps := e.stem.Params()
	if e.withBN {
		ps = append(ps, e.stemBN.Params()...)
	}
	for _, b := range e.blocks {
		ps = append(ps, b.Params()...)
	}
	return append(ps, e.lin.Params()...)
}

// DenseNet is a densely connected encoder (Medical VQA's image branch):
// dense blocks whose layers concatenate their input with their output,
// separated by 1×1-conv + avg-pool transitions.
type DenseNet struct {
	stem   *nn.Conv2D
	blocks [][]*nn.Conv2D // conv layers per dense block
	bns    [][]*nn.BatchNorm2D
	trans  []*nn.Conv2D
	lin    *nn.Linear
	out    int
	withBN bool
	growth int
}

// NewDenseNet builds a DenseNet-style encoder: blocks dense blocks of
// layersPer layers each with the given growth rate.
func NewDenseNet(g *tensor.RNG, inC, h, w, blocks, layersPer, growth int, withBN bool, outDim int) *DenseNet {
	d := &DenseNet{
		stem:   nn.NewConv2DReLU(g.Split(5), inC, 2*growth, 3, 1, 1),
		out:    outDim,
		withBN: withBN,
		growth: growth,
	}
	c := 2 * growth
	for b := 0; b < blocks; b++ {
		var convs []*nn.Conv2D
		var bns []*nn.BatchNorm2D
		for l := 0; l < layersPer; l++ {
			conv := nn.NewConv2D(g.Split(int64(200+10*b+l)), c, growth, 3, 1, 1)
			if withBN {
				bns = append(bns, nn.NewBatchNorm2D(growth))
			} else {
				conv.ReLU = true
			}
			convs = append(convs, conv)
			c += growth
		}
		d.blocks = append(d.blocks, convs)
		d.bns = append(d.bns, bns)
		if b+1 < blocks {
			half := c / 2
			d.trans = append(d.trans, nn.NewConv2DReLU(g.Split(int64(300+b)), c, half, 1, 1, 0))
			c = half
		}
	}
	d.lin = nn.NewLinear(g.Split(6), c, outDim)
	return d
}

// Encode implements Encoder.
func (e *DenseNet) Encode(c *ops.Ctx, in Input) *ops.Var {
	x := e.stem.Forward(c, denseInput(in, "DenseNet"))
	for b, convs := range e.blocks {
		for l, conv := range convs {
			h := conv.Forward(c, x)
			if e.withBN {
				h = c.ReLU(e.bns[b][l].Forward(c, h))
			}
			x = c.Concat(1, x, h)
		}
		if b < len(e.trans) {
			x = c.AvgPool2D(e.trans[b].Forward(c, x), 2)
		}
	}
	return c.ReLU(e.lin.Forward(c, c.GlobalAvgPool2D(x)))
}

// OutDim implements Encoder.
func (e *DenseNet) OutDim() int { return e.out }

// Params implements Encoder.
func (e *DenseNet) Params() []*ops.Var {
	ps := e.stem.Params()
	for b := range e.blocks {
		for _, conv := range e.blocks[b] {
			ps = append(ps, conv.Params()...)
		}
		for _, bn := range e.bns[b] {
			ps = append(ps, bn.Params()...)
		}
	}
	for _, tr := range e.trans {
		ps = append(ps, tr.Params()...)
	}
	return append(ps, e.lin.Params()...)
}

// UNetStem is the contracting half of a U-Net, used as the per-MRI-
// modality encoder of the medical segmentation workload. The bottleneck is
// flattened into a feature vector for fusion.
type UNetStem struct {
	convs []*nn.Conv2D
	lin   *nn.Linear
	out   int
}

// NewUNetStem builds a contracting path of len(widths) levels over
// inC×h×w inputs.
func NewUNetStem(g *tensor.RNG, inC, h, w int, widths []int, outDim int) *UNetStem {
	u := &UNetStem{out: outDim}
	c := inC
	for i, wd := range widths {
		u.convs = append(u.convs, nn.NewConv2DReLU(g.Split(int64(i)), c, wd, 3, 1, 1))
		c = wd
		h, w = h/2, w/2
		if h == 0 || w == 0 {
			panic("models: UNetStem pooled to zero spatial size")
		}
	}
	u.lin = nn.NewLinear(g.Split(77), c*h*w, outDim)
	return u
}

// Encode implements Encoder.
func (e *UNetStem) Encode(c *ops.Ctx, in Input) *ops.Var {
	x := denseInput(in, "UNetStem")
	for _, conv := range e.convs {
		x = c.MaxPool2D(conv.Forward(c, x), 2)
	}
	return c.ReLU(e.lin.Forward(c, c.Flatten(x)))
}

// OutDim implements Encoder.
func (e *UNetStem) OutDim() int { return e.out }

// Params implements Encoder.
func (e *UNetStem) Params() []*ops.Var {
	var ps []*ops.Var
	for _, conv := range e.convs {
		ps = append(ps, conv.Params()...)
	}
	return append(ps, e.lin.Params()...)
}
