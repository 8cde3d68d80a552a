package nn

import (
	"fmt"
	"math"

	"swim/internal/kernel"
	"swim/internal/tensor"
)

// MaxPool2D is a max-pooling layer. Backprop "cancels derivatives of the
// deactivated inputs" (paper §3.3): at both orders the derivative routes to
// the argmax element of each window only.
type MaxPool2D struct {
	name      string
	K, Stride int

	// Forward's input and, for each output element, the flat input index
	// feeding it; both in the caller's scratch.
	x      *tensor.Tensor
	argmax []int
}

// NewMaxPool2D builds a max-pool with a square window and the given stride.
func NewMaxPool2D(name string, k, stride int) *MaxPool2D {
	if k <= 0 || stride <= 0 {
		panic("nn: MaxPool2D requires positive window and stride")
	}
	return &MaxPool2D{name: name, K: k, Stride: stride}
}

// Name implements Layer.
func (m *MaxPool2D) Name() string { return m.name }

// poolOut is the output extent of a k-wide, stride-strided window over in
// positions: 0 when the window does not fit (Go's division truncates
// toward zero, so (in-k)/stride alone would give 1 for in = k-1).
func poolOut(in, k, stride int) int {
	if in < k {
		return 0
	}
	return (in-k)/stride + 1
}

// Forward implements Layer.
func (m *MaxPool2D) Forward(x *tensor.Tensor, _ bool, a *tensor.Arena) *tensor.Tensor {
	checkBatched(x, 4, m.name)
	m.x = x
	b, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh, ow := poolOut(h, m.K, m.Stride), poolOut(w, m.K, m.Stride)
	out := a.Alloc(b, c, oh, ow)
	m.argmax = a.AllocInts(len(out.Data))
	o := 0
	for bi := 0; bi < b; bi++ {
		for ci := 0; ci < c; ci++ {
			plane := (bi*c + ci) * h * w
			for oi := 0; oi < oh; oi++ {
				for oj := 0; oj < ow; oj++ {
					best, bestIdx := math.Inf(-1), -1
					for ki := 0; ki < m.K; ki++ {
						ii := oi*m.Stride + ki
						rowBase := plane + ii*w
						for kj := 0; kj < m.K; kj++ {
							idx := rowBase + oj*m.Stride + kj
							if v := x.Data[idx]; v > best {
								best, bestIdx = v, idx
							}
						}
					}
					out.Data[o] = best
					m.argmax[o] = bestIdx
					o++
				}
			}
		}
	}
	return out
}

// OutShape implements Layer.
func (m *MaxPool2D) OutShape(in []int) ([]int, error) {
	if len(in) != 4 {
		return nil, fmt.Errorf("%s: want rank-4 input, got %v", m.name, in)
	}
	oh, ow := poolOut(in[2], m.K, m.Stride), poolOut(in[3], m.K, m.Stride)
	if oh <= 0 || ow <= 0 {
		return nil, fmt.Errorf("%s: window %d stride %d collapses input %v", m.name, m.K, m.Stride, in)
	}
	return []int{in[0], in[1], oh, ow}, nil
}

// ForwardInto implements Layer (no argmax bookkeeping — inference only).
// The window scan order matches Forward exactly, including tie-breaking.
func (m *MaxPool2D) ForwardInto(dst, x *tensor.Tensor, _ *tensor.Arena, _ kernel.Backend) {
	b, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh, ow := poolOut(h, m.K, m.Stride), poolOut(w, m.K, m.Stride)
	o := 0
	for bi := 0; bi < b; bi++ {
		for ci := 0; ci < c; ci++ {
			plane := (bi*c + ci) * h * w
			for oi := 0; oi < oh; oi++ {
				for oj := 0; oj < ow; oj++ {
					best := math.Inf(-1)
					for ki := 0; ki < m.K; ki++ {
						rowBase := plane + (oi*m.Stride+ki)*w
						for kj := 0; kj < m.K; kj++ {
							if v := x.Data[rowBase+oj*m.Stride+kj]; v > best {
								best = v
							}
						}
					}
					dst.Data[o] = best
					o++
				}
			}
		}
	}
}

// Backward implements Layer.
func (m *MaxPool2D) Backward(dOut *tensor.Tensor, _ int, a *tensor.Arena) *tensor.Tensor {
	dIn := a.Alloc(m.x.Shape...)
	clear(dIn.Data)
	for o, idx := range m.argmax {
		dIn.Data[idx] += dOut.Data[o]
	}
	return dIn
}

func (m *MaxPool2D) drop() { m.x, m.argmax = nil, nil }

// Params implements Layer.
func (m *MaxPool2D) Params() []*Param { return nil }

// Clone implements Layer.
func (m *MaxPool2D) Clone() Layer { return NewMaxPool2D(m.name, m.K, m.Stride) }

// AvgPool2D averages over square windows. With output O = (1/n)ΣI the
// gradient scatters 1/n and, since the map is linear with coefficient 1/n,
// the second derivative scatters (1/n)² (paper: average pooling is "cast in
// the same form as FC layers", i.e. a constant-weight linear layer).
type AvgPool2D struct {
	name      string
	K, Stride int
	inShape   []int
}

// NewAvgPool2D builds an average pool with a square window and stride.
func NewAvgPool2D(name string, k, stride int) *AvgPool2D {
	if k <= 0 || stride <= 0 {
		panic("nn: AvgPool2D requires positive window and stride")
	}
	return &AvgPool2D{name: name, K: k, Stride: stride}
}

// NewGlobalAvgPool builds an average pool that collapses the full spatial
// extent (the classifier head pooling in ResNet).
func NewGlobalAvgPool(name string, spatial int) *AvgPool2D {
	return NewAvgPool2D(name, spatial, spatial)
}

// Name implements Layer.
func (a *AvgPool2D) Name() string { return a.name }

// Forward implements Layer as a thin wrapper over ForwardInto that
// additionally records the input shape for Backward.
func (a *AvgPool2D) Forward(x *tensor.Tensor, _ bool, s *tensor.Arena) *tensor.Tensor {
	checkBatched(x, 4, a.name)
	a.inShape = append(a.inShape[:0], x.Shape...)
	b, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	out := s.Alloc(b, c, poolOut(h, a.K, a.Stride), poolOut(w, a.K, a.Stride))
	a.ForwardInto(out, x, s, nil)
	return out
}

// OutShape implements Layer.
func (a *AvgPool2D) OutShape(in []int) ([]int, error) {
	if len(in) != 4 {
		return nil, fmt.Errorf("%s: want rank-4 input, got %v", a.name, in)
	}
	oh, ow := poolOut(in[2], a.K, a.Stride), poolOut(in[3], a.K, a.Stride)
	if oh <= 0 || ow <= 0 {
		return nil, fmt.Errorf("%s: window %d stride %d collapses input %v", a.name, a.K, a.Stride, in)
	}
	return []int{in[0], in[1], oh, ow}, nil
}

// ForwardInto implements Layer.
func (a *AvgPool2D) ForwardInto(dst, x *tensor.Tensor, _ *tensor.Arena, _ kernel.Backend) {
	b, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	oh, ow := poolOut(h, a.K, a.Stride), poolOut(w, a.K, a.Stride)
	inv := 1.0 / float64(a.K*a.K)
	o := 0
	for bi := 0; bi < b; bi++ {
		for ci := 0; ci < c; ci++ {
			plane := (bi*c + ci) * h * w
			for oi := 0; oi < oh; oi++ {
				for oj := 0; oj < ow; oj++ {
					s := 0.0
					for ki := 0; ki < a.K; ki++ {
						rowBase := plane + (oi*a.Stride+ki)*w + oj*a.Stride
						for kj := 0; kj < a.K; kj++ {
							s += x.Data[rowBase+kj]
						}
					}
					dst.Data[o] = s * inv
					o++
				}
			}
		}
	}
}

// Backward implements Layer: every window element receives the output
// derivative times the window mean's coefficient 1/n, squared at order 2.
func (a *AvgPool2D) Backward(dOut *tensor.Tensor, order int, s *tensor.Arena) *tensor.Tensor {
	n := float64(a.K * a.K)
	coeff := 1.0 / n
	if order == 2 {
		coeff = 1.0 / (n * n)
	}
	dIn := s.Alloc(a.inShape...)
	clear(dIn.Data)
	b, c, h, w := a.inShape[0], a.inShape[1], a.inShape[2], a.inShape[3]
	oh, ow := poolOut(h, a.K, a.Stride), poolOut(w, a.K, a.Stride)
	o := 0
	for bi := 0; bi < b; bi++ {
		for ci := 0; ci < c; ci++ {
			plane := (bi*c + ci) * h * w
			for oi := 0; oi < oh; oi++ {
				for oj := 0; oj < ow; oj++ {
					v := dOut.Data[o] * coeff
					for ki := 0; ki < a.K; ki++ {
						rowBase := plane + (oi*a.Stride+ki)*w + oj*a.Stride
						for kj := 0; kj < a.K; kj++ {
							dIn.Data[rowBase+kj] += v
						}
					}
					o++
				}
			}
		}
	}
	return dIn
}

// Params implements Layer.
func (a *AvgPool2D) Params() []*Param { return nil }

// Clone implements Layer.
func (a *AvgPool2D) Clone() Layer { return NewAvgPool2D(a.name, a.K, a.Stride) }
