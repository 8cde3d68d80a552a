// Package quant implements the uniform weight quantization used when mapping
// DNNs onto nvCiM crossbars (paper §4: "All models ... are quantized to the
// proper data precision", 4-bit for LeNet, 6-bit for ConvNet/ResNet-18).
//
// A weight tensor is quantized symmetrically to sign + M-bit magnitude:
//
//	q = clamp(round(|w| / scale), 0, 2^M − 1),   scale = max|w| / (2^M − 1)
//
// The integer magnitude q is what Eq. 14 of the paper programs bit-serially
// onto K-bit devices; the sign selects the column of a differential crossbar
// pair. Dequantization is w ≈ sign · q · scale.
package quant

import (
	"fmt"
	"math"

	"swim/internal/tensor"
)

// Config describes a weight-quantization setting.
type Config struct {
	// WeightBits is M, the magnitude precision of each weight.
	WeightBits int
	// ActBits is the activation precision (used by models when inserting
	// fake-quantization layers; recorded here so experiments can report it).
	ActBits int
}

// Levels returns the largest representable magnitude 2^M − 1.
func (c Config) Levels() int { return (1 << c.WeightBits) - 1 }

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.WeightBits < 1 || c.WeightBits > 16 {
		return fmt.Errorf("quant: weight bits %d out of range [1,16]", c.WeightBits)
	}
	if c.ActBits < 1 || c.ActBits > 16 {
		return fmt.Errorf("quant: act bits %d out of range [1,16]", c.ActBits)
	}
	return nil
}

// ScaleFor returns the per-tensor quantization step for the given weights.
// A zero tensor gets scale 1 so that dequantization stays well defined.
func ScaleFor(w *tensor.Tensor, bits int) float64 {
	m := w.AbsMax()
	if m == 0 {
		return 1
	}
	return m / float64(int(1)<<bits-1)
}

// QuantizeInt writes the integer magnitudes and signs of w under the given
// step into mags and signs, which must each hold len(w.Data) values.
// Magnitudes are clamped to [0, levels].
func QuantizeInt(mags []int, signs []float64, w *tensor.Tensor, scale float64, bits int) {
	levels := (1 << bits) - 1
	mags, signs = mags[:len(w.Data)], signs[:len(w.Data)]
	for i, v := range w.Data {
		s := 1.0
		if v < 0 {
			s = -1
		}
		q := int(math.Round(math.Abs(v) / scale))
		if q > levels {
			q = levels
		}
		mags[i] = q
		signs[i] = s
	}
}

// Dequantize writes the float weights sign·q·scale reconstructed from
// integer magnitudes and signs into out, which must hold len(mags) values.
func Dequantize(out []float64, mags []int, signs []float64, scale float64) {
	out = out[:len(mags)]
	for i, q := range mags {
		out[i] = signs[i] * float64(q) * scale
	}
}

// FakeQuantize rounds w in place to its quantized grid (straight-through
// forward used during quantization-aware training) and returns the scale.
func FakeQuantize(w *tensor.Tensor, bits int) float64 {
	scale := ScaleFor(w, bits)
	levels := float64(int(1)<<bits - 1)
	for i, v := range w.Data {
		q := math.Round(math.Abs(v) / scale)
		if q > levels {
			q = levels
		}
		if v < 0 {
			w.Data[i] = -q * scale
		} else {
			w.Data[i] = q * scale
		}
	}
	return scale
}

// Error returns the max absolute quantization error of representing w on the
// grid defined by bits (useful for tests and reports).
func Error(w *tensor.Tensor, bits int) float64 {
	scale := ScaleFor(w, bits)
	levels := float64(int(1)<<bits - 1)
	worst := 0.0
	for _, v := range w.Data {
		q := math.Round(math.Abs(v) / scale)
		if q > levels {
			q = levels
		}
		e := math.Abs(math.Abs(v) - q*scale)
		if e > worst {
			worst = e
		}
	}
	return worst
}
