package nn

import (
	"math"

	"swim/internal/tensor"
)

// Loss scores a batch of logits against integer class labels and provides
// the first and second derivatives with respect to the logits, which seed
// the trunk's backward pass of the same order. Like a Layer, it carves
// what it caches and returns from the caller's arena.
type Loss interface {
	// Forward returns the mean loss over the batch and caches, in s, what
	// Backward needs.
	Forward(logits *tensor.Tensor, labels []int, s *tensor.Arena) float64
	// Backward returns the derivative of the given order with respect to
	// the logits ([B, classes], averaged over the batch), carved from s:
	// df/dO at order 1, the diagonal d²f/dO² at order 2 — Eq. 11 for
	// softmax cross-entropy, the constant 2 for L2.
	Backward(order int, s *tensor.Arena) *tensor.Tensor
}

// SoftmaxCrossEntropy is the standard classification loss. Its logit-space
// second derivative diagonal is p_j(1−p_j) (paper Eq. 11).
type SoftmaxCrossEntropy struct {
	probs  *tensor.Tensor
	labels []int
}

// NewSoftmaxCrossEntropy returns the classification loss used by every model
// in the paper.
func NewSoftmaxCrossEntropy() *SoftmaxCrossEntropy { return &SoftmaxCrossEntropy{} }

// Forward implements Loss.
func (s *SoftmaxCrossEntropy) Forward(logits *tensor.Tensor, labels []int, a *tensor.Arena) float64 {
	b, c := logits.Shape[0], logits.Shape[1]
	if len(labels) != b {
		panic("nn: label count does not match batch size")
	}
	s.labels = labels
	s.probs = a.Alloc(b, c)
	loss := 0.0
	for bi := 0; bi < b; bi++ {
		row := logits.Data[bi*c : (bi+1)*c]
		prow := s.probs.Data[bi*c : (bi+1)*c]
		m := row[0]
		for _, v := range row {
			if v > m {
				m = v
			}
		}
		sum := 0.0
		for j, v := range row {
			e := math.Exp(v - m)
			prow[j] = e
			sum += e
		}
		inv := 1.0 / sum
		for j := range prow {
			prow[j] *= inv
		}
		p := prow[labels[bi]]
		if p < 1e-300 {
			p = 1e-300
		}
		loss -= math.Log(p)
	}
	return loss / float64(b)
}

// Backward implements Loss: p − onehot(label) at order 1, p(1−p) at
// order 2, each over the batch size.
func (s *SoftmaxCrossEntropy) Backward(order int, a *tensor.Arena) *tensor.Tensor {
	b, c := s.probs.Shape[0], s.probs.Shape[1]
	inv := 1.0 / float64(b)
	switch order {
	case 1:
		grad := a.Alloc(b, c)
		copy(grad.Data, s.probs.Data)
		for bi := 0; bi < b; bi++ {
			grad.Data[bi*c+s.labels[bi]] -= 1
		}
		grad.Scale(inv)
		return grad
	case 2:
		hess := a.Alloc(b, c)
		for i, p := range s.probs.Data {
			hess.Data[i] = p * (1 - p) * inv
		}
		return hess
	}
	panic(badOrder(order))
}

func (s *SoftmaxCrossEntropy) drop() { s.probs, s.labels = nil, nil }

// L2Loss is the squared-error loss against one-hot targets:
// f = (1/B)·Σ_b Σ_j (O_bj − Y_bj)². Its logit-space second derivative is the
// constant 2 (paper §3.3: "For L2 loss, ∂²f/∂O² = 2").
type L2Loss struct {
	diff *tensor.Tensor
}

// NewL2Loss returns an L2 training loss against one-hot targets.
func NewL2Loss() *L2Loss { return &L2Loss{} }

// Forward implements Loss.
func (l *L2Loss) Forward(logits *tensor.Tensor, labels []int, a *tensor.Arena) float64 {
	b, c := logits.Shape[0], logits.Shape[1]
	if len(labels) != b {
		panic("nn: label count does not match batch size")
	}
	l.diff = a.Alloc(logits.Shape...)
	copy(l.diff.Data, logits.Data)
	for bi := 0; bi < b; bi++ {
		l.diff.Data[bi*c+labels[bi]] -= 1
	}
	return l.diff.SumSquares() / float64(b)
}

// Backward implements Loss: 2·(O − Y) at order 1, the constant 2 at
// order 2, each over the batch size.
func (l *L2Loss) Backward(order int, a *tensor.Arena) *tensor.Tensor {
	scale := 2.0 / float64(l.diff.Shape[0])
	switch order {
	case 1:
		grad := a.Alloc(l.diff.Shape...)
		for i, v := range l.diff.Data {
			grad.Data[i] = v * scale
		}
		return grad
	case 2:
		hess := a.Alloc(l.diff.Shape...)
		hess.Fill(scale)
		return hess
	}
	panic(badOrder(order))
}

func (l *L2Loss) drop() { l.diff = nil }
