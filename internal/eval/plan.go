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
// the Sequential/Residual structure into a linear step program (running
// each ReLU → QuantAct, and a 2×2 stride-2 MaxPool2D after them, as one
// step), and binds one persistent activation buffer per step. Executing
// the plan then runs each layer's ForwardInto kernel into its pre-bound
// buffer, drawing per-call temporaries (im2col columns, DAC scratch) from
// a bump-allocator Arena that is reset at the start of every forward pass.
// The first Forward grows the arena to its fixed point; every subsequent
// pass performs zero heap allocations (pinned by BenchmarkEvalPlan and the
// allocation-regression CI step).
//
// Plans are bit-for-bit equivalent to the evaluation-mode Network.Forward
// — the same kernels run in the same order, and a fused step writes the
// bits of the steps it replaces — so Table 1 / Fig. 1 / Fig. 2 numbers
// cannot drift (pinned by the equivalence tests in this package for
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
//
// Most of the Monte-Carlo loops' re-measurements follow a change to a few
// layers, or to none. A Binding (Evaluator.Bind) is a measurement bound to
// one evaluation set that remembers what it computed: the correct count,
// each batch's activations at the plan's resume points, and a bitwise
// snapshot of every step's inference state. Each call resumes every batch
// at the latest resume point at or before the first step whose state
// changed, and returns the remembered count when none did — bit-identical
// to a full pass. The evaluation set's x and y must not change while
// bound. Evaluator.Accuracy and CountCorrect remember nothing and run every
// batch in full.
package eval

import (
	"errors"
	"fmt"
	"strings"

	"swim/internal/kernel"
	"swim/internal/nn"
	"swim/internal/tensor"
)

type opKind uint8

const (
	// opForward runs step.layer.ForwardInto(buf[dst], buf[src], scratch,
	// kern); a fused step (relu set) runs its QuantAct's
	// ForwardReLUInto(buf[dst], buf[src], pool) instead.
	opForward opKind = iota
	// opAdd accumulates buf[operand] into buf[dst] (residual branch sum).
	opAdd
)

// step is one instruction of the compiled plan.
type step struct {
	kind    opKind
	layer   nn.Layer   // opForward only
	state   layerState // opForward only: the layer's inference state
	src     int        // input buffer index (opForward)
	dst     int        // output buffer index
	operand int        // opAdd: buffer accumulated into dst

	// relu marks a QuantAct's step that also runs the ReLU before it and,
	// with pool, the 2×2 stride-2 MaxPool2D after it (see fuse).
	relu bool
	pool bool
}

// StepInfo describes one compiled step for diagnostics and tests.
type StepInfo struct {
	// Name is the layer name, "+" for a residual branch sum, or the names
	// of the layers a fused step runs joined by "+" ("relu+q1+pool1").
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
	// persistent activation buffers, one per step output (see allocBuffers).
	bufs    []*tensor.Tensor
	out     int // buffer index of the logits
	mem     int // float64s the plan allocated for bufs[1:]
	scratch *tensor.Arena
	kern    kernel.Backend

	// resumes lists the steps a pass can start at, in step order (see
	// resumePoint); stateSize is the float count of every step's inference
	// state together, the size of a Binding's snapshot.
	resumes   []resumePoint
	stateSize int
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
	return compileShared(net, inShape, scratch, k, nil)
}

// compileShared is CompileKernel with the activation buffers backed by
// prefixes of wide's where they fit (see allocBuffers); wide may be nil.
func compileShared(net *nn.Network, inShape []int, scratch *tensor.Arena, k kernel.Backend, wide *Plan) (*Plan, error) {
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
	p.allocBuffers(wide)
	p.markResumePoints()
	return p, nil
}

// allocBuffers backs every step output with an array of its own or, when
// wide (a plan of the same network for a larger batch that never runs at
// the same time, see Evaluator.Plan) has room, with a prefix of wide's
// buffer for the same step: an evaluator's tail plan adds no activation
// memory.
func (p *Plan) allocBuffers(wide *Plan) {
	if wide != nil && len(wide.bufs) != len(p.bufs) {
		wide = nil
	}
	for i, b := range p.bufs[1:] {
		n := b.Size()
		if wide != nil && len(wide.bufs[i+1].Data) >= n {
			b.Data = wide.bufs[i+1].Data[:n]
			continue
		}
		b.Data = make([]float64, n)
		p.mem += n
	}
}

// compile flattens the layer tree rooted at l, reading from buffer src, and
// returns the buffer index holding l's output. Sequential and Residual are
// decomposed into leaf steps; every other layer becomes one opForward.
func (p *Plan) compile(l nn.Layer, src int, srcShape []int) (int, error) {
	switch v := l.(type) {
	case *nn.Sequential:
		cur, curShape := src, srcShape
		for i := 0; i < len(v.Layers); i++ {
			var next int
			var err error
			if n := fuse(v.Layers[i:]); n > 0 {
				next, err = p.compileFused(v.Layers[i:i+n], cur, curShape)
				i += n - 1
			} else {
				next, err = p.compile(v.Layers[i], cur, curShape)
			}
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
		return p.addForward(step{layer: l, src: src}, l.Name(), outShape), nil
	}
}

// fuse returns how many leading layers of a Sequential's ls one step runs:
// 3 for ReLU → QuantAct → a 2×2 stride-2 MaxPool2D, 2 for ReLU → QuantAct,
// else 0.
func fuse(ls []nn.Layer) int {
	if len(ls) < 2 {
		return 0
	}
	if _, ok := ls[0].(*nn.ReLU); !ok {
		return 0
	}
	if _, ok := ls[1].(*nn.QuantAct); !ok {
		return 0
	}
	if len(ls) > 2 {
		if mp, ok := ls[2].(*nn.MaxPool2D); ok && mp.K == 2 && mp.Stride == 2 {
			return 3
		}
	}
	return 2
}

// compileFused compiles the layers fuse picked as one step of the
// QuantAct's, which runs nn.QuantAct.ForwardReLUInto.
func (p *Plan) compileFused(ls []nn.Layer, src int, srcShape []int) (int, error) {
	shape, names := srcShape, make([]string, len(ls))
	for i, l := range ls {
		var err error
		if shape, err = l.OutShape(shape); err != nil {
			return 0, err
		}
		names[i] = l.Name()
	}
	st := step{layer: ls[1], src: src, relu: true, pool: len(ls) == 3}
	return p.addForward(st, strings.Join(names, "+"), shape), nil
}

// addForward appends st as an opForward step writing a new buffer of the
// given shape, with its layer's state, and returns the buffer's index.
func (p *Plan) addForward(st step, name string, outShape []int) int {
	p.bufs = append(p.bufs, &tensor.Tensor{Shape: append([]int(nil), outShape...)})
	st.kind, st.dst, st.state = opForward, len(p.bufs)-1, stateOf(st.layer)
	p.stateSize += st.state.size
	p.steps = append(p.steps, st)
	p.infos = append(p.infos, StepInfo{Name: name, OutShape: append([]int(nil), outShape...)})
	return st.dst
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

// Footprint returns the total float64 count held by the arrays the plan
// allocated for its activation buffers plus its arena.
func (p *Plan) Footprint() int { return p.mem + p.scratch.Footprint() }

// Forward runs inference on x (which must match the compiled input shape)
// and returns the logits. The returned tensor is plan-owned and valid until
// the next Forward call; for the plans of one Evaluator, which share
// activation memory, until the next Forward of any of them. Steady-state
// calls perform zero heap allocations.
func (p *Plan) Forward(x *tensor.Tensor) *tensor.Tensor { return p.run(x, 0, nil, 0) }

// run executes the steps from step from on, with buffer 0 bound to x, and
// returns the logits. from is 0 or a resume point's step. With ck nil
// nothing is remembered. Otherwise ck[k] holds resume point k's live buffer
// for every sample of an evaluation set whose sample lo this batch starts
// at: a run from a resume point restores that buffer first, and every
// later resume point's buffer is saved as the run reaches it.
func (p *Plan) run(x *tensor.Tensor, from int, ck [][]float64, lo int) *tensor.Tensor {
	if !tensor.ShapeEq(x.Shape, p.inShape) {
		panic(fmt.Sprintf("eval: plan compiled for shape %v, got %v", p.inShape, x.Shape))
	}
	p.scratch.Reset()
	p.bufs[0] = x
	r := 0 // next resume point
	if from > 0 {
		for p.resumes[r].step != from {
			r++
		}
		rp := p.resumes[r]
		copy(p.bufs[rp.buf].Data, ck[r][lo*rp.per:])
		r++
	}
	for i := from; i < len(p.steps); i++ {
		if ck != nil && r < len(p.resumes) && p.resumes[r].step == i {
			rp := p.resumes[r]
			copy(ck[r][lo*rp.per:], p.bufs[rp.buf].Data)
			r++
		}
		st := &p.steps[i]
		switch st.kind {
		case opForward:
			if st.relu {
				st.layer.(*nn.QuantAct).ForwardReLUInto(p.bufs[st.dst], p.bufs[st.src], st.pool)
			} else {
				st.layer.ForwardInto(p.bufs[st.dst], p.bufs[st.src], p.scratch, p.kern)
			}
		case opAdd:
			p.bufs[st.dst].Add(p.bufs[st.operand])
		}
	}
	return p.bufs[p.out]
}
