package swim

import (
	"swim/internal/data"
	"swim/internal/nn"
	"swim/internal/tensor"
)

// FisherSensitivity computes the empirical-Fisher alternative to SWIM's
// Hessian diagonal: the per-weight squared gradient accumulated over the
// calibration set, E[(df/dw)²]. It is a popular curvature proxy in the
// pruning/quantization literature and an obvious rival ranking, so the
// repository ships it as an extension selector for ablations.
//
// At a true optimum the averaged gradient vanishes while its per-sample
// square does not; the Fisher therefore captures curvature information of
// the *loss distribution*, whereas Eq. 8–10 propagate the curvature of the
// loss itself. The ablation benchmark compares the two.
//
// The result is flattened in MappedParams order, like Sensitivity.
func FisherSensitivity(net *nn.Network, x *tensor.Tensor, y []int, batch int) []float64 {
	params := net.MappedParams()
	total := 0
	for _, p := range params {
		total += p.Size()
	}
	fisher := make([]float64, total)
	scratch := tensor.NewArena()
	for _, b := range data.Batches(x, y, batch) {
		net.ZeroGrad()
		scratch.Reset()
		net.LossGrad(b.X, b.Y, false, scratch)
		flat := 0
		for _, p := range params {
			for _, g := range p.Grad.Data {
				fisher[flat] += g * g
				flat++
			}
		}
	}
	return fisher
}

// NewFisherSelector builds a selector ranking by empirical Fisher with the
// same magnitude tie-break as SWIM.
func NewFisherSelector(fisher, weights []float64) *SWIMSelector {
	sel := NewSWIMSelector(fisher, weights)
	return sel
}
