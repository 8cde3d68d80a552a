package nn

import (
	"fmt"
	"math"

	"swim/internal/kernel"
	"swim/internal/rng"
	"swim/internal/tensor"
)

// Conv2D is a 2-D convolution lowered to im2col + matmul. As the paper notes,
// convolution "can be cast in the same form as FC layers", so its backward
// pass reuses the linear-layer rules at both orders, with the im2col adjoint
// (Col2ImAdd) scattering input derivatives back; overlapping receptive
// fields sum, exactly like the skip-connection rule. The backward pass
// gets that lowering's bits without building it for most samples:
// kernel.ConvBackward walks only the nonzero output derivatives (behind a
// max-pool most are exact zeros) and falls back to the dense
// kernel.Default() products for samples whose derivative is mostly
// nonzero.
type Conv2D struct {
	name string
	OutC int
	Geom tensor.Conv2DGeom
	W, B *Param // W is [outC, inC*kh*kw]

	x *tensor.Tensor // Forward's input [B, inC, inH, inW], in the caller's scratch
}

// NewConv2D builds a convolution for a fixed input geometry (channels ×
// height × width), kernel, stride and padding. Fixing the geometry at
// construction keeps forward hot paths allocation-free; the models in this
// repo all run fixed input sizes, as crossbar-mapped accelerators do.
func NewConv2D(name string, inC, inH, inW, outC, kh, kw, stride, pad int, r *rng.Source) *Conv2D {
	g := tensor.NewConv2DGeom(inC, inH, inW, kh, kw, stride, pad)
	c := &Conv2D{name: name, OutC: outC, Geom: g,
		W: newParam(name+".W", outC, g.ColRows()),
		B: newParam(name+".B", outC),
	}
	c.W.Mapped = true
	std := math.Sqrt(2.0 / float64(g.ColRows()))
	for i := range c.W.Data.Data {
		c.W.Data.Data[i] = r.Gauss(0, std)
	}
	return c
}

// Name implements Layer.
func (c *Conv2D) Name() string { return c.name }

// OutShape implements Layer.
func (c *Conv2D) OutShape(in []int) ([]int, error) {
	g := c.Geom
	if len(in) != 4 || in[1] != g.InC || in[2] != g.InH || in[3] != g.InW {
		return nil, fmt.Errorf("%s: want input shape [B %d %d %d], got %v", c.name, g.InC, g.InH, g.InW, in)
	}
	return []int{in[0], c.OutC, g.OutH, g.OutW}, nil
}

// Forward implements Layer as a thin wrapper over ForwardInto that
// additionally keeps the input for Backward.
func (c *Conv2D) Forward(x *tensor.Tensor, _ bool, a *tensor.Arena) *tensor.Tensor {
	checkBatched(x, 4, c.name)
	c.x = x
	out := a.Alloc(x.Shape[0], c.OutC, c.Geom.OutH, c.Geom.OutW)
	c.ForwardInto(out, x, a, kernel.Default())
	return out
}

// ForwardInto implements Layer: the batched convolution primitive
// dst = conv(x, W) + b. For backends that lower through im2col the workspace
// comes from scratch (the heap when scratch is nil); im2col-free backends
// get no workspace at all.
func (c *Conv2D) ForwardInto(dst, x *tensor.Tensor, s *tensor.Arena, k kernel.Backend) {
	g := c.Geom
	var cols *tensor.Tensor
	switch {
	case !k.UsesIm2Col():
	case s != nil:
		cols = s.Alloc(g.ColRows(), g.ColCols())
	default:
		cols = tensor.New(g.ColRows(), g.ColCols())
	}
	k.Conv2D(g, c.OutC, dst, x, c.W.Data, c.B.Data.Data, cols)
}

// Backward implements Layer. Order 2 runs the order-1 products on the
// squared inputs and squared weights: Eq. 8 with the shared-weight
// positions summed, the convolutional analogue of summing over the batch,
// and Eq. 10's core for the input.
func (c *Conv2D) Backward(dOut *tensor.Tensor, order int, a *tensor.Arena) *tensor.Tensor {
	g := c.Geom
	dIn := a.Alloc(dOut.Shape[0], g.InC, g.InH, g.InW)
	c.backward(dOut, order, dIn, a)
	return dIn
}

// backward accumulates the parameter derivatives of the given order and,
// when dIn is non-nil, writes the input derivative into it. The products run
// in kernel.ConvBackward, which walks only the nonzero output derivatives
// and falls back to the dense kernel.Default() products for samples whose
// derivative is mostly nonzero; its workspaces come from a.
func (c *Conv2D) backward(dOut *tensor.Tensor, order int, dIn *tensor.Tensor, a *tensor.Arena) {
	kernel.ConvBackward(c.Geom, c.OutC, dIn, c.W.acc(order), c.B.acc(order).Data, c.x, c.W.Data, dOut, a, order == 2)
}

func (c *Conv2D) drop() { c.x = nil }

// Params implements Layer.
func (c *Conv2D) Params() []*Param { return []*Param{c.W, c.B} }

// Clone implements Layer.
func (c *Conv2D) Clone() Layer {
	return &Conv2D{name: c.name, OutC: c.OutC, Geom: c.Geom, W: c.W.clone(), B: c.B.clone()}
}
