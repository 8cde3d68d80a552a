package mapping

import (
	"swim/internal/calib"
	"swim/internal/eval"
	"swim/internal/nn"
)

// Snapshot is a saved point of one Mapped's trial: everything programming,
// in-situ training and measurement can change. Restore puts the trial back
// to it bit for bit, so several programming strategies can start from one
// programmed device instance without re-running its set-up. A Snapshot
// reuses its storage across Save calls, also for another instance of the
// same network.
type Snapshot struct {
	mp *Mapped // the instance saved, which alone may restore

	params []float64 // every parameter's data, mapped and digital, in Params order
	layers []float64 // BatchNorm running statistics and epsilon, QuantAct range, bits and bypass

	// Magnitudes and signs, compactly: desired values are always
	// sign·magnitude·scale of their parameter, so Restore recomputes them.
	mags     []uint16
	negative []bool
	verified []bool
	cond     []float64
	cycles   float64
	dirty    []int
	needFull bool
	rawRead  []float64
	corr     []calib.Correction

	mark eval.Mark // the accuracy binding's last pass, if it measured this state
}

// Save records mp's current state in s: the network's inference state (every
// parameter plus the layer state eval's bindings compare), the desired
// values' magnitudes and signs, verification marks, tracked conductances,
// write bill, pending read-out sync, calibration buffers, and the accuracy
// binding's last pass when it measured this state.
func (mp *Mapped) Save(s *Snapshot) {
	s.mp = mp
	s.params = s.params[:0]
	for _, p := range mp.Net.Params() {
		s.params = append(s.params, p.Data.Data...)
	}
	s.layers = s.layers[:0]
	nn.Walk(mp.Net.Trunk, func(l nn.Layer) {
		switch v := l.(type) {
		case *nn.BatchNorm2D:
			s.layers = append(append(append(s.layers, v.RunMean.Data...), v.RunVar.Data...), v.Eps)
		case *nn.QuantAct:
			s.layers = append(s.layers, v.Max, float64(v.Bits), flag(v.Disabled))
		}
	})
	s.mags, s.negative = s.mags[:0], s.negative[:0]
	for i, m := range mp.mags {
		s.mags = append(s.mags, uint16(m)) // M ≤ 16 bits
		s.negative = append(s.negative, mp.signs[i] < 0)
	}
	s.verified = append(s.verified[:0], mp.Verified...)
	s.cond = append(s.cond[:0], mp.cond...)
	s.cycles = mp.CyclesUsed
	s.dirty = append(s.dirty[:0], mp.dirty...)
	s.needFull = mp.needFull
	s.rawRead = append(s.rawRead[:0], mp.rawRead...)
	// Fit returns a fresh Correction each time and nothing edits one in
	// place, so copying the values keeps their slices intact.
	s.corr = append(s.corr[:0], mp.corr...)
	s.mark = eval.Mark{}
	if mp.bound != nil {
		s.mark = mp.bound.Mark()
	}
}

// Restore puts mp back to the state saved in s, copying into the storage mp
// already holds (the compiled evaluation plans keep reading it). When the
// accuracy binding's last pass at Save measured the saved state, the
// binding is rewound to it, so a measurement of the restored state returns
// that pass's count without running; its checkpoints still hold later
// activations, so the first measurement that finds a change runs a full
// pass. Otherwise the binding forgets its last pass. s must come from
// mp.Save.
func (mp *Mapped) Restore(s *Snapshot) {
	if s.mp != mp {
		panic("mapping: Restore of a snapshot taken from another instance")
	}
	rest := s.params
	for _, p := range mp.Net.Params() {
		rest = rest[copy(p.Data.Data, rest):]
	}
	rest = s.layers
	nn.Walk(mp.Net.Trunk, func(l nn.Layer) {
		switch v := l.(type) {
		case *nn.BatchNorm2D:
			rest = rest[copy(v.RunMean.Data, rest):]
			rest = rest[copy(v.RunVar.Data, rest):]
			v.Eps, rest = rest[0], rest[1:]
		case *nn.QuantAct:
			v.Max, v.Bits, v.Disabled = rest[0], int(rest[1]), rest[2] != 0
			rest = rest[3:]
		}
	})
	for pi, p := range mp.loc.params {
		lo := mp.loc.offsets[pi]
		for i := lo; i < lo+p.Size(); i++ {
			sign := 1.0
			if s.negative[i] {
				sign = -1
			}
			mp.mags[i], mp.signs[i] = int(s.mags[i]), sign
			mp.desired[i] = sign * float64(mp.mags[i]) * mp.scales[pi]
		}
	}
	copy(mp.Verified, s.verified)
	copy(mp.cond, s.cond)
	mp.CyclesUsed = s.cycles
	mp.dirty = append(mp.dirty[:0], s.dirty...)
	mp.needFull = s.needFull
	copy(mp.rawRead, s.rawRead)
	copy(mp.corr, s.corr)
	if mp.bound != nil {
		mp.bound.Rewind(s.mark)
	}
}

// Reset forgets the instance s was saved from, keeping its storage for the
// next Save; a pool of snapshots then holds no trial alive.
func (s *Snapshot) Reset() {
	s.mp, s.mark = nil, eval.Mark{}
	clear(s.corr)
}

func flag(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
