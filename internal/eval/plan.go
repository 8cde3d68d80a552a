// Package eval implements the compiled, zero-allocation evaluation engine
// behind every accuracy measurement in the repository; it is the only
// inference path. The Monte-Carlo loops of the SWIM reproduction re-run the
// full network forward pass over the evaluation set after every programming
// granule; through the training-side Layer.Forward each of those passes
// would allocate fresh output tensors, im2col scratch and residual clones,
// so the hot loop would be dominated by GC pressure rather than arithmetic.
//
// A Plan fixes that: Compile walks a nn.Network once for a fixed batch
// shape, infers every intermediate shape via nn.Layer.OutShape, flattens
// the Sequential/Residual structure into a linear step program, and binds
// one persistent activation buffer per step. Executing the plan then runs
// each layer's ForwardInto kernel into its pre-bound buffer, drawing
// per-call temporaries (im2col columns, DAC scratch) from a bump-allocator
// Arena that is reset at the start of every forward pass. The first Forward
// grows the arena to its fixed point; every subsequent pass performs zero
// heap allocations (pinned by BenchmarkEvalPlan and the
// allocation-regression CI step).
//
// Plans are bit-for-bit equivalent to the evaluation-mode Network.Forward
// — the same kernels run in the same order — so Table 1 / Fig. 1 / Fig. 2
// numbers cannot drift (pinned by the equivalence tests in this package for
// every model in internal/models, digital and analog). Forward itself stays
// for training, the Hessian pass and as that reference.
//
// A Plan is bound to the layer instances of one network clone and reads the
// current weights at execution time: re-programming weights (write-verify,
// in-situ updates) never requires recompilation. Recompilation is needed
// only when the batch shape changes (Evaluator caches one plan per batch
// size) or when the network's layer graph itself is rebuilt. Plans are not
// goroutine-safe — the pipeline compiles one per Monte-Carlo worker, each
// with its own arena.
package eval

import (
	"errors"
	"fmt"

	"swim/internal/kernel"
	"swim/internal/nn"
	"swim/internal/tensor"
)

type opKind uint8

const (
	// opForward runs step.layer.ForwardInto(buf[dst], buf[src], scratch, kern).
	opForward opKind = iota
	// opAdd accumulates buf[operand] into buf[dst] (residual branch sum).
	opAdd
)

// step is one instruction of the compiled plan.
type step struct {
	kind    opKind
	layer   nn.Layer // opForward only
	src     int      // input buffer index (opForward)
	dst     int      // output buffer index
	operand int      // opAdd: buffer accumulated into dst
}

// StepInfo describes one compiled step for diagnostics and tests.
type StepInfo struct {
	// Name is the layer name, or "+" for a residual branch sum.
	Name string
	// OutShape is the full (batched) output shape of the step.
	OutShape []int
}

// Plan is a compiled evaluation program for one network at one fixed batch
// shape. It is not safe for concurrent use.
type Plan struct {
	net     *nn.Network
	inShape []int
	steps   []step
	infos   []StepInfo
	// bufs[0] is rebound to the caller's input every Forward; bufs[1:] are
	// plan-owned persistent activation buffers, one per step output.
	bufs    []*tensor.Tensor
	out     int // buffer index of the logits
	scratch *tensor.Arena
	kern    kernel.Backend
}

// Compile builds a plan for net at the given batched input shape (axis 0 is
// the batch size). scratch supplies execution temporaries; pass nil to give
// the plan its own arena, or share one arena across the plans of a worker.
// The first Forward call grows the arena to its fixed point (warm-up); every
// later call with the same plan set is allocation-free.
func Compile(net *nn.Network, inShape []int, scratch *tensor.Arena) (*Plan, error) {
	return CompileKernel(net, inShape, scratch, nil)
}

// CompileKernel is Compile with an explicit kernel backend executing the
// dense primitives (matmul, fused bias+matmul, convolution) of the layers
// that have them; nil selects kernel.Default(). Every registered backend
// is bit-identical to scalar, so the backend never changes plan results —
// only how fast the steps run.
func CompileKernel(net *nn.Network, inShape []int, scratch *tensor.Arena, k kernel.Backend) (*Plan, error) {
	if net == nil {
		return nil, errors.New("eval: nil network")
	}
	if len(inShape) < 2 || inShape[0] < 1 {
		return nil, fmt.Errorf("eval: need a batched input shape, got %v", inShape)
	}
	if scratch == nil {
		scratch = tensor.NewArena()
	}
	if k == nil {
		k = kernel.Default()
	}
	p := &Plan{
		net:     net,
		inShape: append([]int(nil), inShape...),
		scratch: scratch,
		kern:    k,
	}
	// Buffer 0 is the input slot, rebound on every Forward call.
	p.bufs = append(p.bufs, nil)
	out, err := p.compile(net.Trunk, 0, p.inShape)
	if err != nil {
		return nil, fmt.Errorf("eval: compiling %s: %w", net.Name, err)
	}
	p.out = out
	return p, nil
}

// compile flattens the layer tree rooted at l, reading from buffer src, and
// returns the buffer index holding l's output. Sequential and Residual are
// decomposed into leaf steps; every other layer becomes one opForward.
func (p *Plan) compile(l nn.Layer, src int, srcShape []int) (int, error) {
	switch v := l.(type) {
	case *nn.Sequential:
		cur, curShape := src, srcShape
		for _, child := range v.Layers {
			next, err := p.compile(child, cur, curShape)
			if err != nil {
				return 0, err
			}
			cur, curShape = next, p.shapeOf(next, curShape)
		}
		return cur, nil
	case *nn.Residual:
		// Body first, then the shortcut, then the branch sum — the exact
		// execution order (and floating-point result) of Residual.Forward.
		dst, err := p.compile(v.Body, src, srcShape)
		if err != nil {
			return 0, err
		}
		if dst == src {
			// An empty body would make the branch sum alias (and mutate) the
			// residual input buffer.
			return 0, fmt.Errorf("residual %s: empty body", v.Name())
		}
		operand := src // identity skip adds the residual input
		if v.Shortcut != nil {
			if operand, err = p.compile(v.Shortcut, src, srcShape); err != nil {
				return 0, err
			}
		}
		dstShape := p.shapeOf(dst, srcShape)
		opShape := p.shapeOf(operand, srcShape)
		if !tensor.ShapeEq(dstShape, opShape) {
			return 0, fmt.Errorf("residual %s: body shape %v != skip shape %v", v.Name(), dstShape, opShape)
		}
		p.steps = append(p.steps, step{kind: opAdd, dst: dst, operand: operand})
		p.infos = append(p.infos, StepInfo{Name: "+", OutShape: dstShape})
		return dst, nil
	default:
		outShape, err := l.OutShape(srcShape)
		if err != nil {
			return 0, err
		}
		p.bufs = append(p.bufs, tensor.New(outShape...))
		dst := len(p.bufs) - 1
		p.steps = append(p.steps, step{kind: opForward, layer: l, src: src, dst: dst})
		p.infos = append(p.infos, StepInfo{Name: l.Name(), OutShape: append([]int(nil), outShape...)})
		return dst, nil
	}
}

// shapeOf returns the shape of buffer i (fallback covers buffer 0, the input).
func (p *Plan) shapeOf(i int, inShape []int) []int {
	if i == 0 {
		return inShape
	}
	return p.bufs[i].Shape
}

// InShape returns the batched input shape the plan was compiled for.
func (p *Plan) InShape() []int { return p.inShape }

// Batch returns the compiled batch size.
func (p *Plan) Batch() int { return p.inShape[0] }

// OutShape returns the batched logits shape.
func (p *Plan) OutShape() []int { return p.bufs[p.out].Shape }

// Steps returns the compiled step list (layer name + output shape per step)
// for diagnostics.
func (p *Plan) Steps() []StepInfo { return p.infos }

// Footprint returns the total float64 count held by the plan's persistent
// activation buffers plus its scratch arena.
func (p *Plan) Footprint() int {
	total := p.scratch.Footprint()
	for _, b := range p.bufs[1:] {
		total += len(b.Data)
	}
	return total
}

// Forward runs inference on x (which must match the compiled input shape)
// and returns the logits. The returned tensor is plan-owned and valid until
// the next Forward call. Steady-state calls perform zero heap allocations.
func (p *Plan) Forward(x *tensor.Tensor) *tensor.Tensor {
	if !tensor.ShapeEq(x.Shape, p.inShape) {
		panic(fmt.Sprintf("eval: plan compiled for shape %v, got %v", p.inShape, x.Shape))
	}
	p.scratch.Reset()
	p.bufs[0] = x
	for _, st := range p.steps {
		switch st.kind {
		case opForward:
			st.layer.ForwardInto(p.bufs[st.dst], p.bufs[st.src], p.scratch, p.kern)
		case opAdd:
			p.bufs[st.dst].Add(p.bufs[st.operand])
		}
	}
	return p.bufs[p.out]
}

// CountCorrect runs inference and returns how many samples are classified
// correctly, sharing the top-1 argmax (and its tie-breaking) with
// Network.CountCorrect.
func (p *Plan) CountCorrect(x *tensor.Tensor, labels []int) int {
	return nn.CountCorrectLogits(p.Forward(x), labels)
}
