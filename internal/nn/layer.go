package nn

import (
	"fmt"

	"swim/internal/kernel"
	"swim/internal/tensor"
)

// Layer is the one contract of every network building block. It has two
// forward entry points: Forward feeds training and the Hessian pass, and
// ForwardInto is the inference path compiled evaluation plans (package eval)
// run.
//
// Training memory belongs to the caller. Forward and Backward carve their
// outputs, the caches Backward reads (a layer's input, pool argmaxes,
// batch-norm x̂ and 1/σ) and the input derivatives from the arena s the
// caller passes, so a pass allocates nothing once s has grown to its size.
// Nothing they return or keep is valid after s's next Reset. Between
// Forward and the Backward calls that follow it a layer holds references
// to its caches, so a single layer instance must not be shared between
// concurrently trained networks (use Clone for per-trial copies), and
// Network's passes drop those references before they return: no scratch
// stays on a network between passes.
type Layer interface {
	// Name returns a short human-readable identifier.
	Name() string
	// Forward computes the layer output for a batch (axis 0 is the batch),
	// carved from s or, for a layer that passes values through unchanged
	// (Flatten, a pass-through QuantAct), a view of x. train selects training
	// behaviour (batch-norm batch statistics, activation range
	// calibration). x is never written.
	Forward(x *tensor.Tensor, train bool, s *tensor.Arena) *tensor.Tensor
	// Backward runs the backward pass of the given derivative order and
	// must follow a Forward call on an s not reset since. Order 1 consumes
	// df/dOutput, returns df/dInput and accumulates parameter gradients into
	// Param.Grad. Order 2 consumes d²f/dOutput², returns d²f/dInput² and
	// accumulates parameter Hessian diagonals into Param.Hess per the
	// paper's Eq. 8–10: the order-1 rule with squared inputs, weights and
	// coefficients. The input derivative is carved from s (Flatten returns
	// a view of dOut); dOut is never written. Sigmoid and Tanh need the
	// order-1 pass on the same Forward before order 2 and read its dOut
	// there, so s must not be reset between the two; no other layer does.
	Backward(dOut *tensor.Tensor, order int, s *tensor.Arena) *tensor.Tensor
	// Params returns the layer's parameters (empty for stateless layers).
	Params() []*Param
	// Clone returns a deep copy with independent parameters, zeroed
	// gradient and Hessian accumulators, and no caches.
	Clone() Layer
	// OutShape returns the output shape produced for a batched input of the
	// given shape (axis 0 is the batch), or an error when the input shape is
	// incompatible with the layer. Plans infer every intermediate shape with
	// it once, at compile time.
	OutShape(in []int) ([]int, error)
	// ForwardInto computes the evaluation-mode (train=false) forward pass
	// into dst, under these contracts:
	//
	//   - dst is fully overwritten (it may hold garbage on entry) and must
	//     not alias x;
	//   - no state needed by Backward is updated;
	//   - scratch may be nil, in which case temporaries come from the heap;
	//     buffers carved from scratch are released by the caller's next
	//     Arena.Reset, so implementations must not retain them across
	//     calls;
	//   - k is never nil: it executes the dense primitives (matmul, fused
	//     bias+matmul, convolution). Containers pass it to their children;
	//     layers with no dense primitive (activations, pooling,
	//     normalization, the analog crossbar layers) ignore it.
	//
	// The arithmetic is bit-for-bit that of Forward(x, false, s): the same
	// kernels run in the same order, and every kernel backend is
	// bit-identical to scalar (package kernel), so a compiled plan
	// reproduces Forward exactly (pinned by the equivalence tests in
	// package eval).
	ForwardInto(dst, x *tensor.Tensor, scratch *tensor.Arena, k kernel.Backend)
}

// holder is implemented by the layers and losses that keep references to
// their caller's scratch between Forward and Backward; drop forgets them.
type holder interface{ drop() }

// dropCaches makes l forget its references to scratch, if it keeps any.
func dropCaches(l Layer) {
	if h, ok := l.(holder); ok {
		h.drop()
	}
}

// Sequential chains layers, feeding each output into the next.
type Sequential struct {
	name   string
	Layers []Layer
}

// NewSequential builds a named layer chain.
func NewSequential(name string, layers ...Layer) *Sequential {
	return &Sequential{name: name, Layers: layers}
}

// Name implements Layer.
func (s *Sequential) Name() string { return s.name }

// Forward implements Layer. Each ReLU → QuantAct (→ 2×2 stride-2
// MaxPool2D) chain that Fuse finds runs as one step, QuantAct's
// forwardChain, as evaluation plans run it.
func (s *Sequential) Forward(x *tensor.Tensor, train bool, a *tensor.Arena) *tensor.Tensor {
	for i := 0; i < len(s.Layers); i++ {
		if n := Fuse(s.Layers[i:]); n > 0 {
			x = s.Layers[i+1].(*QuantAct).forwardChain(x, train, n == 3, a)
			i += n - 1
			continue
		}
		x = s.Layers[i].Forward(x, train, a)
	}
	return x
}

// Fuse returns how many leading layers of a Sequential's ls run as one
// step, in training and in evaluation plans: 3 for ReLU → QuantAct → a 2×2
// stride-2 MaxPool2D, 2 for ReLU → QuantAct, else 0. The QuantAct runs the
// step (forwardChain, ForwardReLUInto).
func Fuse(ls []Layer) int {
	if len(ls) < 2 {
		return 0
	}
	if _, ok := ls[0].(*ReLU); !ok {
		return 0
	}
	if _, ok := ls[1].(*QuantAct); !ok {
		return 0
	}
	if len(ls) > 2 {
		if mp, ok := ls[2].(*MaxPool2D); ok && mp.K == 2 && mp.Stride == 2 {
			return 3
		}
	}
	return 2
}

// OutShape implements Layer by folding the children's shape inference.
func (s *Sequential) OutShape(in []int) ([]int, error) {
	cur := in
	for _, l := range s.Layers {
		var err error
		if cur, err = l.OutShape(cur); err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
	}
	return cur, nil
}

// ForwardInto implements Layer: each child's output is carved from the
// scratch arena, with the final child writing directly into dst. Compiled
// plans flatten Sequential instead of calling this (the per-call shape
// inference here allocates).
func (s *Sequential) ForwardInto(dst, x *tensor.Tensor, scratch *tensor.Arena, k kernel.Backend) {
	cur := x
	for i, l := range s.Layers {
		if i == len(s.Layers)-1 {
			l.ForwardInto(dst, cur, scratch, k)
			return
		}
		shape, err := l.OutShape(cur.Shape)
		if err != nil {
			panic(fmt.Sprintf("nn: %s: %v", s.name, err))
		}
		var out *tensor.Tensor
		if scratch != nil {
			out = scratch.Alloc(shape...)
		} else {
			out = tensor.New(shape...)
		}
		l.ForwardInto(out, cur, scratch, k)
		cur = out
	}
	// Empty Sequential: identity.
	copy(dst.Data, x.Data)
}

// Backward implements Layer.
func (s *Sequential) Backward(dOut *tensor.Tensor, order int, a *tensor.Arena) *tensor.Tensor {
	return s.backward(0, dOut, order, a, true)
}

// backward runs the backward pass of the steps from layer i on, the last
// first, and returns the derivative with respect to layer i's input. With
// wantIn false a first Conv2D does not compute it and backward returns nil.
func (s *Sequential) backward(i int, d *tensor.Tensor, order int, a *tensor.Arena, wantIn bool) *tensor.Tensor {
	if i == len(s.Layers) {
		return d
	}
	n := max(1, Fuse(s.Layers[i:]))
	d = s.backward(i+n, d, order, a, true)
	if n > 1 {
		return s.Layers[i+1].Backward(d, order, a) // the chain's QuantAct
	}
	if c, ok := s.Layers[i].(*Conv2D); ok && !wantIn {
		c.backward(d, order, nil, a)
		return nil
	}
	return s.Layers[i].Backward(d, order, a)
}

// Params implements Layer.
func (s *Sequential) Params() []*Param {
	var ps []*Param
	for _, l := range s.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// Clone implements Layer.
func (s *Sequential) Clone() Layer {
	ls := make([]Layer, len(s.Layers))
	for i, l := range s.Layers {
		ls[i] = l.Clone()
	}
	return &Sequential{name: s.name, Layers: ls}
}

// Residual implements a skip connection: out = Body(x) + Shortcut(x).
// Shortcut may be nil for an identity skip. At both derivative orders the
// contributions of the two branches are summed, matching the paper's rule
// that "the second derivatives of different branches are summed up".
type Residual struct {
	name     string
	Body     Layer
	Shortcut Layer // nil means identity
}

// NewResidual builds a residual block from a body and optional projection
// shortcut (pass nil for identity).
func NewResidual(name string, body, shortcut Layer) *Residual {
	return &Residual{name: name, Body: body, Shortcut: shortcut}
}

// Name implements Layer.
func (r *Residual) Name() string { return r.name }

// Forward implements Layer: the body's output plus the shortcut's (or x),
// summed into a new buffer, since a body's last layer may keep its output
// for Backward (Sigmoid, Tanh).
func (r *Residual) Forward(x *tensor.Tensor, train bool, a *tensor.Arena) *tensor.Tensor {
	body := r.Body.Forward(x, train, a)
	skip := x
	if r.Shortcut != nil {
		skip = r.Shortcut.Forward(x, train, a)
	}
	return sum(a, body, skip)
}

// sum returns u + v, elementwise, carved from a.
func sum(a *tensor.Arena, u, v *tensor.Tensor) *tensor.Tensor {
	if !u.SameShape(v) {
		panic(fmt.Sprintf("nn: branch sum of shapes %v and %v", u.Shape, v.Shape))
	}
	out := a.Alloc(u.Shape...)
	for i, uv := range u.Data {
		out.Data[i] = uv + v.Data[i]
	}
	return out
}

// OutShape implements Layer. The body defines the output shape; a
// projection shortcut must produce the same shape (an identity skip requires
// the body to preserve the input shape).
func (r *Residual) OutShape(in []int) ([]int, error) {
	out, err := r.Body.OutShape(in)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", r.name, err)
	}
	if r.Shortcut != nil {
		sout, err := r.Shortcut.OutShape(in)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", r.name, err)
		}
		if !tensor.ShapeEq(out, sout) {
			return nil, fmt.Errorf("%s: body shape %v != shortcut shape %v", r.name, out, sout)
		}
	} else if !tensor.ShapeEq(out, in) {
		return nil, fmt.Errorf("%s: identity skip needs body to preserve shape, got %v -> %v", r.name, in, out)
	}
	return out, nil
}

// ForwardInto implements Layer: body into dst, shortcut into a scratch
// temporary, then the branch sum — the same order (and therefore the same
// floating-point results) as Forward.
func (r *Residual) ForwardInto(dst, x *tensor.Tensor, scratch *tensor.Arena, k kernel.Backend) {
	r.Body.ForwardInto(dst, x, scratch, k)
	if r.Shortcut == nil {
		dst.Add(x)
		return
	}
	var tmp *tensor.Tensor
	if scratch != nil {
		tmp = scratch.Alloc(dst.Shape...)
	} else {
		tmp = tensor.New(dst.Shape...)
	}
	r.Shortcut.ForwardInto(tmp, x, scratch, k)
	dst.Add(tmp)
}

// Backward implements Layer.
func (r *Residual) Backward(dOut *tensor.Tensor, order int, a *tensor.Arena) *tensor.Tensor {
	body := r.Body.Backward(dOut, order, a)
	skip := dOut
	if r.Shortcut != nil {
		skip = r.Shortcut.Backward(dOut, order, a)
	}
	return sum(a, body, skip)
}

// Params implements Layer.
func (r *Residual) Params() []*Param {
	ps := r.Body.Params()
	if r.Shortcut != nil {
		ps = append(ps, r.Shortcut.Params()...)
	}
	return ps
}

// Clone implements Layer.
func (r *Residual) Clone() Layer {
	c := &Residual{name: r.name, Body: r.Body.Clone()}
	if r.Shortcut != nil {
		c.Shortcut = r.Shortcut.Clone()
	}
	return c
}

// Flatten reshapes [B, ...] activations to [B, features].
type Flatten struct {
	inShape []int
}

// NewFlatten returns a flattening layer.
func NewFlatten() *Flatten { return &Flatten{} }

// Name implements Layer.
func (f *Flatten) Name() string { return "flatten" }

// Forward implements Layer: a view of x.
func (f *Flatten) Forward(x *tensor.Tensor, _ bool, a *tensor.Arena) *tensor.Tensor {
	f.inShape = append(f.inShape[:0], x.Shape...)
	b := x.Shape[0]
	return a.View(x.Data, b, len(x.Data)/b)
}

// OutShape implements Layer.
func (f *Flatten) OutShape(in []int) ([]int, error) {
	if len(in) < 2 {
		return nil, fmt.Errorf("flatten: need a batched input, got shape %v", in)
	}
	n := 1
	for _, d := range in[1:] {
		n *= d
	}
	return []int{in[0], n}, nil
}

// ForwardInto implements Layer. Unlike Forward, which returns an aliasing
// reshape view, it copies into the destination buffer (same values, no
// aliasing between plan buffers).
func (f *Flatten) ForwardInto(dst, x *tensor.Tensor, _ *tensor.Arena, _ kernel.Backend) {
	copy(dst.Data, x.Data)
}

// Backward implements Layer: a view of dOut.
func (f *Flatten) Backward(dOut *tensor.Tensor, _ int, a *tensor.Arena) *tensor.Tensor {
	return a.View(dOut.Data, f.inShape...)
}

// Params implements Layer.
func (f *Flatten) Params() []*Param { return nil }

// Clone implements Layer.
func (f *Flatten) Clone() Layer { return &Flatten{} }

// Walk visits every layer in the tree rooted at l (depth-first, pre-order),
// descending into Sequential and Residual containers. It is the traversal
// hook used by serialization and diagnostics.
func Walk(l Layer, visit func(Layer)) {
	visit(l)
	switch v := l.(type) {
	case *Sequential:
		for _, child := range v.Layers {
			Walk(child, visit)
		}
	case *Residual:
		Walk(v.Body, visit)
		if v.Shortcut != nil {
			Walk(v.Shortcut, visit)
		}
	}
}

func checkBatched(x *tensor.Tensor, wantRank int, who string) {
	if len(x.Shape) != wantRank {
		panic(fmt.Sprintf("nn: %s expects rank-%d input, got shape %v", who, wantRank, x.Shape))
	}
}

// squared returns the elementwise square of t, carved from a: the inputs
// and weights of an order-2 pass through a linear map.
func squared(a *tensor.Arena, t *tensor.Tensor) *tensor.Tensor {
	sq := a.Alloc(t.Shape...)
	for i, v := range t.Data {
		sq.Data[i] = v * v
	}
	return sq
}
