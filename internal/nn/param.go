// Package nn implements the neural-network substrate for the SWIM
// reproduction: layers with a forward pass and one backward pass that takes
// the derivative order —
//
//   - Forward(x, train, arena): the training (or evaluation-mode) forward
//     pass;
//   - Backward(d, 1, arena): first-derivative (gradient) backprop into
//     Param.Grad;
//   - Backward(d, 2, arena): the paper's Eq. 8–10 diagonal second-derivative
//     backprop, which propagates d²f/dI² through squared weights and
//     accumulates the per-weight sensitivities d²f/dW² that SWIM ranks into
//     Param.Hess.
//
// The memory of these passes belongs to their caller: every output,
// backward cache and input derivative is carved from the tensor.Arena the
// caller passes, valid until it resets that arena, and a Network pass drops
// every reference to it before returning, so no scratch stays on a network
// between passes (see Layer and Network). Inside a Sequential, each ReLU →
// QuantAct (→ 2×2 stride-2 MaxPool2D) chain that Fuse finds runs as one
// forward and one backward step of the QuantAct's, as compiled evaluation
// plans run it.
//
// Order 2 is the order-1 rule with every linear coefficient — inputs,
// weights, pooling and normalization factors — squared, the diagonal recipe
// of Optimal Brain Damage (LeCun et al., NIPS 1990) the paper builds on.
// Smooth activations (Sigmoid, Tanh) add one term, g″ times the order-1
// gradient, so they need the order-1 pass on the same Forward first;
// BatchNorm2D's batch-statistics terms have no order-2 counterpart (the
// sensitivity pass runs in evaluation mode). One backward pass thus serves
// both orders, which is how the paper achieves single-pass Hessian
// diagonals: cost and memory are within a constant factor of an ordinary
// gradient computation. Both orders run their dense products on
// kernel.Default(), except Conv2D's: kernel.ConvBackward walks only the
// nonzero output derivatives and falls back to the dense kernel.Default()
// products for samples whose derivative is mostly nonzero. Nothing reads
// the derivative with respect to the network input, so Network's passes do
// not compute it for a first Conv2D.
package nn

import (
	"fmt"

	"swim/internal/tensor"
)

// Param is a learnable (and possibly device-mapped) parameter tensor with its
// gradient and diagonal-Hessian accumulators.
type Param struct {
	// Name identifies the parameter for reports, e.g. "conv1.W".
	Name string
	// Data holds the parameter values (for mapped params these are the
	// *desired* values; programmed values live in the mapping package).
	Data *tensor.Tensor
	// Grad accumulates df/dw during an order-1 Backward.
	Grad *tensor.Tensor
	// Hess accumulates the Hessian diagonal d²f/dw² during an order-2
	// Backward.
	Hess *tensor.Tensor
	// Mapped marks parameters that are programmed onto NVM crossbar devices
	// (convolution and fully-connected weight matrices). Biases and
	// batch-norm affine parameters stay in digital peripherals and are never
	// write-verified.
	Mapped bool
}

func newParam(name string, shape ...int) *Param {
	return &Param{
		Name: name,
		Data: tensor.New(shape...),
		Grad: tensor.New(shape...),
		Hess: tensor.New(shape...),
	}
}

// ZeroGrad clears the gradient accumulator.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// ZeroHess clears the Hessian-diagonal accumulator.
func (p *Param) ZeroHess() { p.Hess.Zero() }

// acc returns the accumulator a backward pass of the given derivative order
// adds into: Grad for order 1, Hess for order 2.
func (p *Param) acc(order int) *tensor.Tensor {
	switch order {
	case 1:
		return p.Grad
	case 2:
		return p.Hess
	}
	panic(badOrder(order))
}

func badOrder(order int) string {
	return fmt.Sprintf("nn: derivative order %d, want 1 or 2", order)
}

// Size returns the number of scalar weights in the parameter.
func (p *Param) Size() int { return p.Data.Size() }

// clone copies the parameter's values; the copy's accumulators start at
// zero, because every reader zeroes them before a backward pass adds into
// them.
func (p *Param) clone() *Param {
	return &Param{
		Name:   p.Name,
		Data:   p.Data.Clone(),
		Grad:   tensor.New(p.Grad.Shape...),
		Hess:   tensor.New(p.Hess.Shape...),
		Mapped: p.Mapped,
	}
}
