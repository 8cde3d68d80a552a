// Package train implements the SGD trainer that produces the converged,
// quantization-aware models the paper assumes as its starting point (§4.2:
// "All models presented are quantized to the proper data precision and
// trained to converge ... This training process is quantization-aware ...
// but does not take device variations into considerations").
package train

import (
	"fmt"
	"io"

	"swim/internal/data"
	"swim/internal/eval"
	"swim/internal/nn"
	"swim/internal/quant"
	"swim/internal/rng"
	"swim/internal/tensor"
)

// Config controls an SGD run.
type Config struct {
	Epochs       int
	Batch        int
	LR           float64
	Momentum     float64
	WeightDecay  float64
	LRDecayEvery int     // epochs between LR decays (0 = never)
	LRDecayBy    float64 // multiplicative decay factor
	// QATBits > 0 enables quantization-aware training: each step runs the
	// forward/backward pass on fake-quantized mapped weights while the
	// latent float weights receive the (straight-through) update.
	QATBits int
	// Log, when non-nil, receives one line per epoch.
	Log io.Writer
}

// DefaultConfig returns a sensible baseline configuration.
func DefaultConfig() Config {
	return Config{
		Epochs: 6, Batch: 32, LR: 0.01, Momentum: 0.9, WeightDecay: 1e-4,
		LRDecayEvery: 3, LRDecayBy: 0.3,
	}
}

// EpochStats reports one epoch of training.
type EpochStats struct {
	Epoch    int
	Loss     float64
	TrainAcc float64
	LR       float64
}

// SGD trains net on the dataset's training split and returns per-epoch
// statistics. The run is deterministic given r. Every step's forward and
// backward buffers come from one arena that SGD owns, reset between steps
// and dropped when it returns, so training leaves no scratch on net.
func SGD(net *nn.Network, ds *data.Dataset, cfg Config, r *rng.Source) []EpochStats {
	scratch := tensor.NewArena()
	vel := make(map[*nn.Param]*tensor.Tensor)
	params := net.Params()
	for _, p := range params {
		vel[p] = tensor.New(p.Data.Shape...)
	}
	// Under QAT each mapped param owns two persistent tensors, its latent
	// weights and a quantized copy; a batch swaps the copy in for the pass
	// and the latent weights back for the update.
	mapped := net.MappedParams()
	latent, quantized := make([]*tensor.Tensor, len(mapped)), make([]*tensor.Tensor, len(mapped))
	if cfg.QATBits > 0 {
		for i, p := range mapped {
			quantized[i] = tensor.New(p.Data.Shape...)
		}
	}

	lr := cfg.LR
	var stats []EpochStats
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		if cfg.LRDecayEvery > 0 && epoch > 0 && epoch%cfg.LRDecayEvery == 0 {
			lr *= cfg.LRDecayBy
		}
		x, y := data.Shuffled(ds.TrainX, ds.TrainY, r.Split())
		var lossSum float64
		var correct, seen int
		for _, b := range data.Batches(x, y, cfg.Batch) {
			if cfg.QATBits > 0 {
				// Stash latent weights, run the pass on the quantized grid.
				for i, p := range mapped {
					copy(quantized[i].Data, p.Data.Data)
					quant.FakeQuantize(quantized[i], cfg.QATBits)
					latent[i], p.Data = p.Data, quantized[i]
				}
			}
			net.ZeroGrad()
			scratch.Reset()
			loss, ok := net.LossGradCount(b.X, b.Y, true, scratch)
			lossSum += loss * float64(len(b.Y))
			correct += ok
			seen += len(b.Y)
			if cfg.QATBits > 0 {
				for i, p := range mapped {
					p.Data = latent[i] // restore latent weights for the update
				}
			}
			for _, p := range params {
				v := vel[p]
				for i := range v.Data {
					g := p.Grad.Data[i] + cfg.WeightDecay*p.Data.Data[i]
					v.Data[i] = cfg.Momentum*v.Data[i] - lr*g
					p.Data.Data[i] += v.Data[i]
				}
			}
		}
		st := EpochStats{
			Epoch:    epoch,
			Loss:     lossSum / float64(seen),
			TrainAcc: 100 * float64(correct) / float64(seen),
			LR:       lr,
		}
		stats = append(stats, st)
		if cfg.Log != nil {
			fmt.Fprintf(cfg.Log, "epoch %2d  loss %.4f  train acc %.2f%%  lr %.4f\n",
				st.Epoch, st.Loss, st.TrainAcc, st.LR)
		}
	}
	if cfg.QATBits > 0 {
		// Commit the quantized grid: from here on the network weights are
		// exactly the values that will be programmed onto devices.
		for _, p := range mapped {
			quant.FakeQuantize(p.Data, cfg.QATBits)
		}
	}
	return stats
}

// Evaluate returns the top-1 accuracy (%) of net on (x, y), evaluated in
// batches of the given size through the compiled evaluation engine (package
// eval; bit-identical to the evaluation-mode Forward). A malformed
// evaluation set is a caller bug, so the evaluator's error panics. Hot loops
// that evaluate the same network repeatedly should hold an eval.Evaluator
// instead of calling this in a loop — Evaluate compiles (and discards) fresh
// plans every call.
func Evaluate(net *nn.Network, x *tensor.Tensor, y []int, batch int) float64 {
	acc, err := eval.NewEvaluator(net, nil).Accuracy(x, y, batch)
	if err != nil {
		panic(err)
	}
	return acc
}
