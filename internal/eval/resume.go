package eval

import (
	"math"

	"swim/internal/nn"
	"swim/internal/tensor"
)

// resumePoint is a step a pass can start at instead of step 0: the step of
// a layer with parameters before which exactly one activation buffer
// besides the input is live. Restoring that one buffer restores everything
// the remaining steps read. In LeNet every parametric step after conv1 is
// one; in ResNet-18, stem.bn, every block boundary and the classifier.
type resumePoint struct {
	step int // index into Plan.steps
	buf  int // the live buffer, restored before the step runs
	per  int // floats per sample in buf
}

// markResumePoints finds the plan's resume points from buffer liveness: a
// buffer is live before step i when a step before i wrote it and a step at
// or after i reads it.
func (p *Plan) markResumePoints() {
	written := make([]int, len(p.bufs)) // step that creates each buffer
	last := make([]int, len(p.bufs))    // last step that reads each buffer
	for i, st := range p.steps {
		switch st.kind {
		case opForward:
			written[st.dst] = i
			last[st.src] = i
		case opAdd:
			last[st.dst], last[st.operand] = i, i
		}
	}
	for i, st := range p.steps {
		if st.kind != opForward || len(st.layer.Params()) == 0 {
			continue
		}
		live, buf := 0, 0
		for b := 1; b < len(p.bufs); b++ {
			if written[b] < i && last[b] >= i {
				live, buf = live+1, b
			}
		}
		if live == 1 {
			p.resumes = append(p.resumes, resumePoint{step: i, buf: buf, per: len(p.bufs[buf].Data) / p.Batch()})
		}
	}
}

// layerState enumerates the inference state of one layer: its Params plus
// BatchNorm2D's running statistics and epsilon, or QuantAct's range, bit
// width and bypass flag. The state of a layer type eval cannot enumerate is
// opaque: it counts as changed on every comparison. A residual branch sum
// has no state.
type layerState struct {
	opaque bool
	params []*nn.Param
	bn     *nn.BatchNorm2D
	q      *nn.QuantAct
	size   int // floats the state takes in a snapshot
}

func stateOf(l nn.Layer) layerState {
	var s layerState
	switch v := l.(type) {
	case *nn.BatchNorm2D:
		s.bn = v
		s.size = len(v.RunMean.Data) + len(v.RunVar.Data) + 1
	case *nn.QuantAct:
		s.q = v
		s.size = 3
	case *nn.Conv2D, *nn.Linear, *nn.ReLU, *nn.MaxPool2D, *nn.AvgPool2D, *nn.Flatten, *nn.Sigmoid, *nn.Tanh:
	default:
		return layerState{opaque: true}
	}
	s.params = l.Params()
	for _, p := range s.params {
		s.size += len(p.Data.Data)
	}
	return s
}

// equal reports whether the layer's current state matches snap bit for bit,
// so a ±0 flip counts as a change.
func (s *layerState) equal(snap []float64) bool {
	if s.opaque {
		return false
	}
	for _, p := range s.params {
		if !sameBits(snap, p.Data.Data) {
			return false
		}
		snap = snap[len(p.Data.Data):]
	}
	if bn := s.bn; bn != nil {
		n := len(bn.RunMean.Data)
		return sameBits(snap, bn.RunMean.Data) && sameBits(snap[n:], bn.RunVar.Data) &&
			sameBits(snap[2*n:], []float64{bn.Eps})
	}
	if q := s.q; q != nil {
		return sameBits(snap, []float64{q.Max, float64(q.Bits), flag(q.Disabled)})
	}
	return true
}

// save copies the layer's current state into snap.
func (s *layerState) save(snap []float64) {
	for _, p := range s.params {
		snap = snap[copy(snap, p.Data.Data):]
	}
	if bn := s.bn; bn != nil {
		snap = snap[copy(snap, bn.RunMean.Data):]
		snap = snap[copy(snap, bn.RunVar.Data):]
		snap[0] = bn.Eps
	}
	if q := s.q; q != nil {
		snap[0], snap[1], snap[2] = q.Max, float64(q.Bits), flag(q.Disabled)
	}
}

// sameBits reports whether snap starts with cur's values, bit for bit.
func sameBits(snap, cur []float64) bool {
	for i, v := range cur {
		if math.Float64bits(snap[i]) != math.Float64bits(v) {
			return false
		}
	}
	return true
}

func flag(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// resumeAt returns the step a pass starts at when step first is the first
// whose state changed: the latest resume point at or before it, or 0.
func (p *Plan) resumeAt(first int) int {
	from := 0
	for _, rp := range p.resumes {
		if rp.step > first {
			break
		}
		from = rp.step
	}
	return from
}

// Binding is an accuracy measurement bound to one evaluation set and batch
// size. It remembers what its last pass computed: the correct count, every
// batch's activations at the plan's resume points, and a bitwise snapshot
// of every step's inference state. Each call compares the network's state
// with the snapshot, restores the checkpoints of the latest resume point
// at or before the first step that changed, and runs only the steps after
// it, for every batch; when nothing changed it returns the remembered
// count without running anything. The results are bit-identical to a full
// pass, because every step the call skips would have recomputed the same
// bits.
//
// The checkpoint and snapshot storage is kept in the evaluator's arena
// (tensor.Arena.Keep), so a pooled arena lends the same memory to the
// binding of every trial it serves. An arena holds one binding's storage at
// a time: binding again on the same arena takes it, and a binding that
// finds its storage taken binds anew and runs a full pass.
//
// x and y must not change while bound. Like its evaluator, a Binding is not
// safe for concurrent use.
type Binding struct {
	ev    *Evaluator
	x     *tensor.Tensor
	y     []int
	batch int
	pl    *Plan // the first batch's plan; its steps enumerate the state

	epoch   uint64      // the arena epoch snap and ck were carved in
	snap    []float64   // every step's inference state at the last pass
	ck      [][]float64 // per resume point: its live buffer for every sample
	correct int         // the last pass's correct count
	valid   bool        // the last pass completed, so the above describe it
}

// Bind returns a measurement of the evaluator's network over (x, y) in
// consecutive batches of at most batch samples, with its storage carved
// from the evaluator's arena. The first call runs a full pass.
func (e *Evaluator) Bind(x *tensor.Tensor, y []int, batch int) (*Binding, error) {
	if err := checkSet(x, y, batch); err != nil {
		return nil, err
	}
	pl, err := e.Plan(append([]int{min(batch, x.Shape[0])}, x.Shape[1:]...))
	if err != nil {
		return nil, err
	}
	b := &Binding{ev: e, x: x, y: y, batch: batch, pl: pl, ck: make([][]float64, len(pl.resumes))}
	b.claim()
	return b, nil
}

// claim carves the binding's snapshot and checkpoints from the arena's kept
// region, taking it from any earlier holder, and forgets the last pass.
func (b *Binding) claim() {
	a := b.ev.scratch
	b.epoch = a.ResetKept()
	n := b.x.Shape[0]
	size := b.pl.stateSize
	for _, rp := range b.pl.resumes {
		size += n * rp.per
	}
	buf := a.Keep(size)
	b.snap, buf = buf[:b.pl.stateSize], buf[b.pl.stateSize:]
	for k, rp := range b.pl.resumes {
		b.ck[k], buf = buf[:n*rp.per], buf[n*rp.per:]
	}
	b.valid = false
}

// On reports whether the binding measures (x, y) in batches of batch: the
// same backing arrays, input shape and batch size.
func (b *Binding) On(x *tensor.Tensor, y []int, batch int) bool {
	return batch == b.batch && tensor.ShapeEq(x.Shape, b.x.Shape) &&
		len(x.Data) == len(b.x.Data) && &x.Data[0] == &b.x.Data[0] &&
		len(y) == len(b.y) && &y[0] == &b.y[0]
}

// firstChange returns the first step whose inference state differs from
// the snapshot, or len(steps) when none does.
func (b *Binding) firstChange() int {
	steps := b.pl.steps
	snap := b.snap
	for i := range steps {
		st := &steps[i].state
		if !st.equal(snap[:st.size]) {
			return i
		}
		snap = snap[st.size:]
	}
	return len(steps)
}

// CountCorrect returns how many samples of the bound set the network
// currently classifies correctly, running only what changed since the last
// call. Steady-state calls — full, resumed or unchanged — perform zero heap
// allocations.
func (b *Binding) CountCorrect() (int, error) {
	if b.epoch != b.ev.scratch.KeptEpoch() {
		b.claim()
	}
	steps := b.pl.steps
	first := 0
	if b.valid {
		if first = b.firstChange(); first == len(steps) {
			return b.correct, nil
		}
	}
	snap := b.snap
	for i := range steps {
		st := &steps[i].state
		if i >= first {
			st.save(snap[:st.size])
		}
		snap = snap[st.size:]
	}
	b.valid = false
	correct, err := b.ev.count(b.x, b.y, b.batch, b.pl.resumeAt(first), b.ck)
	if err != nil {
		return 0, err
	}
	b.correct, b.valid = correct, true
	return correct, nil
}

// Accuracy returns the network's current top-1 accuracy (%) over the bound
// set; see CountCorrect.
func (b *Binding) Accuracy() (float64, error) {
	correct, err := b.CountCorrect()
	if err != nil {
		return 0, err
	}
	return 100 * float64(correct) / float64(len(b.y)), nil
}
