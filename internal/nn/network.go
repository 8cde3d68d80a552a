package nn

import (
	"fmt"
	"slices"

	"swim/internal/tensor"
)

// Network couples a layer trunk with a loss function and exposes the
// whole-model operations the rest of the repository builds on: evaluation,
// gradient accumulation, and the single-pass Hessian-diagonal accumulation
// at the heart of SWIM.
//
// Its passes (Forward, LossGrad, AccumulateHessian, ...) carve every
// buffer from the arena the caller passes and do not reset it: the caller
// resets it between passes, which invalidates what the previous pass
// returned, and owns it for as long as it wants the memory reused. A pass
// leaves no reference to the arena on the network (see Layer), so a
// network that outlives its trainer holds no scratch.
type Network struct {
	Name  string
	Trunk *Sequential
	Loss  Loss

	params, mapped []*Param // listed once, by NewNetwork
}

// NewNetwork assembles a network. The trunk's structure is fixed from here
// on: Params and MappedParams return the parameters found now.
func NewNetwork(name string, trunk *Sequential, loss Loss) *Network {
	n := &Network{Name: name, Trunk: trunk, Loss: loss, params: slices.Clip(trunk.Params())}
	for _, p := range n.params {
		if p.Mapped {
			n.mapped = append(n.mapped, p)
		}
	}
	n.mapped = slices.Clip(n.mapped)
	return n
}

// Forward runs the trunk on a batch and returns the logits ([B, classes]),
// carved from s.
func (n *Network) Forward(x *tensor.Tensor, train bool, s *tensor.Arena) *tensor.Tensor {
	defer n.drop()
	return n.Trunk.Forward(x, train, s)
}

// drop makes every layer and the loss forget their references to the
// pass's scratch, so none stays on the network between passes.
func (n *Network) drop() {
	Walk(n.Trunk, dropCaches)
	if h, ok := n.Loss.(holder); ok {
		h.drop()
	}
}

// Params returns every parameter in layer order. The slice is shared:
// callers must not modify it.
func (n *Network) Params() []*Param { return n.params }

// MappedParams returns only the crossbar-mapped parameters (conv/FC weight
// matrices) — the weights subject to device variation and write-verify.
// The slice is shared: callers must not modify it.
func (n *Network) MappedParams() []*Param { return n.mapped }

// NumMappedWeights returns the total count of crossbar-mapped scalar weights
// (the |W0| of the paper's Algorithm 1).
func (n *Network) NumMappedWeights() int {
	total := 0
	for _, p := range n.MappedParams() {
		total += p.Size()
	}
	return total
}

// ZeroGrad clears all gradient accumulators.
func (n *Network) ZeroGrad() {
	for _, p := range n.Params() {
		p.ZeroGrad()
	}
}

// ZeroHess clears all Hessian-diagonal accumulators.
func (n *Network) ZeroHess() {
	for _, p := range n.Params() {
		p.ZeroHess()
	}
}

// backprop runs one forward pass on a batch, scores it, then runs the
// trunk's backward pass once per listed derivative order, each seeded by
// the loss derivative of that order. It returns the batch loss and the
// logits, which stay valid until s's next Reset. Every buffer of the pass
// is carved from s, none reused across orders: a Sigmoid or Tanh reads its
// order-1 dOut in the order-2 pass. Nothing reads the derivative with
// respect to the network input, so a first convolution does not compute
// it.
func (n *Network) backprop(x *tensor.Tensor, labels []int, train bool, s *tensor.Arena, orders ...int) (float64, *tensor.Tensor) {
	defer n.drop()
	logits := n.Trunk.Forward(x, train, s)
	loss := n.Loss.Forward(logits, labels, s)
	for _, order := range orders {
		n.Trunk.backward(0, n.Loss.Backward(order, s), order, s, false)
	}
	return loss, logits
}

// LossGrad runs forward + first-derivative backward on one batch,
// accumulating parameter gradients, and returns the batch loss. Its
// buffers come from s (see backprop).
func (n *Network) LossGrad(x *tensor.Tensor, labels []int, train bool, s *tensor.Arena) float64 {
	loss, _ := n.backprop(x, labels, train, s, 1)
	return loss
}

// LossGradCount is LossGrad that additionally reports the number of
// correctly classified samples in the batch, reusing the same forward pass
// (training loops want both without paying for a second inference).
func (n *Network) LossGradCount(x *tensor.Tensor, labels []int, train bool, s *tensor.Arena) (float64, int) {
	loss, logits := n.backprop(x, labels, train, s, 1)
	return loss, CountCorrectLogits(logits, labels)
}

// CountCorrectLogits returns how many rows of logits ([B, classes]) argmax
// to their label (top-1, first-max tie-breaking). It is the single argmax
// used by every accuracy measurement — Network.CountCorrect and compiled
// plans share it, which the bit-identical evaluation guarantee depends on.
func CountCorrectLogits(logits *tensor.Tensor, labels []int) int {
	b, c := logits.Shape[0], logits.Shape[1]
	correct := 0
	for bi := 0; bi < b; bi++ {
		row := logits.Data[bi*c : (bi+1)*c]
		best, bj := row[0], 0
		for j, v := range row {
			if v > best {
				best, bj = v, j
			}
		}
		if bj == labels[bi] {
			correct++
		}
	}
	return correct
}

// AccumulateHessian runs forward + second-derivative backward on one batch,
// accumulating per-weight sensitivities into Param.Hess. Per the paper this
// is a single extra pass with the cost profile of a gradient computation; it
// runs in evaluation mode because the model is frozen while being mapped.
func (n *Network) AccumulateHessian(x *tensor.Tensor, labels []int, s *tensor.Arena) float64 {
	loss, _ := n.backprop(x, labels, false, s, 2)
	return loss
}

// AccumulateHessianFull is AccumulateHessian preceded by an order-1 backward
// pass on the same forward computation. Networks containing
// curvature-carrying activations (Sigmoid, Tanh) need the first derivatives
// for Eq. 9's g″ term; ReLU networks can use the cheaper AccumulateHessian.
// Parameter gradients accumulated by the embedded backward pass are left in
// place (callers that care should ZeroGrad afterwards).
func (n *Network) AccumulateHessianFull(x *tensor.Tensor, labels []int, s *tensor.Arena) float64 {
	loss, _ := n.backprop(x, labels, false, s, 1, 2)
	return loss
}

// EvalLoss runs forward only and returns the mean batch loss.
func (n *Network) EvalLoss(x *tensor.Tensor, labels []int, s *tensor.Arena) float64 {
	loss, _ := n.backprop(x, labels, false, s)
	return loss
}

// CountCorrect returns how many samples in the batch are classified
// correctly (top-1).
func (n *Network) CountCorrect(x *tensor.Tensor, labels []int, s *tensor.Arena) int {
	return CountCorrectLogits(n.Forward(x, false, s), labels)
}

// Clone deep-copies the network (parameters and running statistics; the
// accumulators start at zero and caches are excluded). Monte-Carlo trials clone the master network once per trial so
// that device-noise injection never corrupts the trained weights.
func (n *Network) Clone() *Network {
	return NewNetwork(n.Name, n.Trunk.Clone().(*Sequential), cloneLoss(n.Loss))
}

func cloneLoss(l Loss) Loss {
	switch l.(type) {
	case *SoftmaxCrossEntropy:
		return NewSoftmaxCrossEntropy()
	case *L2Loss:
		return NewL2Loss()
	default:
		panic(fmt.Sprintf("nn: cannot clone loss %T", l))
	}
}
