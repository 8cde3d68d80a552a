package crossbar

import (
	"fmt"

	"swim/internal/kernel"
	"swim/internal/nn"
	"swim/internal/rng"
	"swim/internal/tensor"
)

// AnalogLinear is an inference-only fully connected layer whose weights live
// on a crossbar Array; the bias adds digitally in the peripheral, as on real
// nvCiM parts.
type AnalogLinear struct {
	name string
	arr  *Array
	bias []float64
}

// Name implements nn.Layer.
func (a *AnalogLinear) Name() string { return a.name }

// Forward implements nn.Layer as a thin wrapper over ForwardInto.
func (a *AnalogLinear) Forward(x *tensor.Tensor, _ bool, s *tensor.Arena) *tensor.Tensor {
	out, _ := a.arr.Shape()
	y := s.Alloc(x.Shape[0], out)
	a.ForwardInto(y, x, s, kernel.Default())
	return y
}

// OutShape implements nn.Layer.
func (a *AnalogLinear) OutShape(in []int) ([]int, error) {
	out, fanIn := a.arr.Shape()
	if len(in) != 2 || in[1] != fanIn {
		return nil, fmt.Errorf("%s: want input shape [B %d], got %v", a.name, fanIn, in)
	}
	return []int{in[0], out}, nil
}

// ForwardInto implements nn.Layer: analog inference with the DAC scratch and
// output rows carved from the arena (heap when scratch is nil), so plan
// execution over the crossbar fabric stays allocation-free. The arithmetic is
// the device model's, not a dense matmul, so the kernel backend is unused.
func (a *AnalogLinear) ForwardInto(dst, x *tensor.Tensor, s *tensor.Arena, _ kernel.Backend) {
	b := x.Shape[0]
	out, in := a.arr.Shape()
	xq := tensor.ScratchFloats(s, in)
	for bi := 0; bi < b; bi++ {
		row := dst.Data[bi*out : (bi+1)*out]
		a.arr.MatVecInto(row, x.Data[bi*in:(bi+1)*in], xq)
		for j := range row {
			row[j] += a.bias[j]
		}
	}
}

// Backward implements nn.Layer (analog arrays are inference-only here).
func (a *AnalogLinear) Backward(*tensor.Tensor, int, *tensor.Arena) *tensor.Tensor {
	panic("crossbar: analog layers are inference-only")
}

// Params implements nn.Layer.
func (a *AnalogLinear) Params() []*nn.Param { return nil }

// Clone implements nn.Layer (shares the programmed array: cloning a chip
// does not refabricate it).
func (a *AnalogLinear) Clone() nn.Layer { return a }

// AnalogConv2D runs a convolution by streaming im2col patches through the
// crossbar (each output pixel is one analog matrix-vector product), exactly
// the dataflow of ISAAC-style accelerators.
type AnalogConv2D struct {
	name string
	arr  *Array
	geom tensor.Conv2DGeom
	outC int
	bias []float64
	cols *tensor.Tensor
}

// Name implements nn.Layer.
func (a *AnalogConv2D) Name() string { return a.name }

// Forward implements nn.Layer as a thin wrapper over ForwardInto.
func (a *AnalogConv2D) Forward(x *tensor.Tensor, _ bool, s *tensor.Arena) *tensor.Tensor {
	g := a.geom
	out := s.Alloc(x.Shape[0], a.outC, g.OutH, g.OutW)
	a.ForwardInto(out, x, s, kernel.Default())
	return out
}

// OutShape implements nn.Layer.
func (a *AnalogConv2D) OutShape(in []int) ([]int, error) {
	g := a.geom
	if len(in) != 4 || in[1] != g.InC || in[2] != g.InH || in[3] != g.InW {
		return nil, fmt.Errorf("%s: want input shape [B %d %d %d], got %v", a.name, g.InC, g.InH, g.InW, in)
	}
	return []int{in[0], a.outC, g.OutH, g.OutW}, nil
}

// ForwardInto implements nn.Layer: every im2col patch streams through the
// crossbar with all temporaries (lowered columns, patch vector, DAC scratch,
// ADC output row) carved from the arena; like AnalogLinear it ignores the
// kernel backend.
func (a *AnalogConv2D) ForwardInto(dst, x *tensor.Tensor, s *tensor.Arena, _ kernel.Backend) {
	b := x.Shape[0]
	g := a.geom
	var cols *tensor.Tensor
	if s != nil {
		cols = s.Alloc(g.ColRows(), g.ColCols())
	} else {
		if a.cols == nil {
			a.cols = tensor.New(g.ColRows(), g.ColCols())
		}
		cols = a.cols
	}
	sampleIn := g.InC * g.InH * g.InW
	patch := tensor.ScratchFloats(s, g.ColRows())
	xq := tensor.ScratchFloats(s, g.ColRows())
	y := tensor.ScratchFloats(s, a.outC)
	nc := g.ColCols()
	for bi := 0; bi < b; bi++ {
		g.Im2ColInto(cols, x.Data[bi*sampleIn:(bi+1)*sampleIn])
		for p := 0; p < nc; p++ {
			for r := 0; r < g.ColRows(); r++ {
				patch[r] = cols.Data[r*nc+p]
			}
			a.arr.MatVecInto(y, patch, xq)
			for oc := 0; oc < a.outC; oc++ {
				dst.Data[((bi*a.outC+oc)*g.OutH*g.OutW)+p] = y[oc] + a.bias[oc]
			}
		}
	}
}

// Backward implements nn.Layer.
func (a *AnalogConv2D) Backward(*tensor.Tensor, int, *tensor.Arena) *tensor.Tensor {
	panic("crossbar: analog layers are inference-only")
}

// Params implements nn.Layer.
func (a *AnalogConv2D) Params() []*nn.Param { return nil }

// Clone implements nn.Layer.
func (a *AnalogConv2D) Clone() nn.Layer { return a }

// BuildAnalog constructs an inference-only analog twin of net: every Linear
// and Conv2D moves onto crossbar arrays programmed with unverified writes
// under cfg's device model, while activation, pooling, normalization and
// quantization layers stay digital. The returned network shares no weight
// state with the original. Total tiles used is also reported.
//
// An invalid fabric configuration or an unexpected trunk shape is returned
// as an error so callers driving builds from Monte-Carlo workers can fail
// the trial instead of the process.
func BuildAnalog(net *nn.Network, cfg Config, r *rng.Source) (*nn.Network, int, error) {
	tiles := 0
	var convert func(l nn.Layer) (nn.Layer, error)
	convert = func(l nn.Layer) (nn.Layer, error) {
		switch v := l.(type) {
		case *nn.Sequential:
			out := make([]nn.Layer, len(v.Layers))
			for i, child := range v.Layers {
				c, err := convert(child)
				if err != nil {
					return nil, err
				}
				out[i] = c
			}
			return nn.NewSequential(v.Name(), out...), nil
		case *nn.Residual:
			var short nn.Layer
			if v.Shortcut != nil {
				s, err := convert(v.Shortcut)
				if err != nil {
					return nil, err
				}
				short = s
			}
			body, err := convert(v.Body)
			if err != nil {
				return nil, err
			}
			return nn.NewResidual(v.Name(), body, short), nil
		case *nn.Linear:
			arr, err := NewArray(cfg, v.W.Data, r)
			if err != nil {
				return nil, fmt.Errorf("layer %s: %w", v.Name(), err)
			}
			tiles += arr.Tiles()
			return &AnalogLinear{
				name: v.Name() + ".analog",
				arr:  arr,
				bias: append([]float64(nil), v.B.Data.Data...),
			}, nil
		case *nn.Conv2D:
			arr, err := NewArray(cfg, v.W.Data, r)
			if err != nil {
				return nil, fmt.Errorf("layer %s: %w", v.Name(), err)
			}
			tiles += arr.Tiles()
			return &AnalogConv2D{
				name: v.Name() + ".analog",
				arr:  arr,
				geom: v.Geom,
				outC: v.OutC,
				bias: append([]float64(nil), v.B.Data.Data...),
			}, nil
		default:
			return l.Clone(), nil
		}
	}
	converted, err := convert(net.Trunk)
	if err != nil {
		return nil, 0, fmt.Errorf("crossbar: building analog twin of %s: %w", net.Name, err)
	}
	trunk, ok := converted.(*nn.Sequential)
	if !ok {
		return nil, 0, fmt.Errorf("crossbar: unexpected trunk type %T", net.Trunk)
	}
	return nn.NewNetwork(net.Name+"-analog", trunk, nn.NewSoftmaxCrossEntropy()), tiles, nil
}
