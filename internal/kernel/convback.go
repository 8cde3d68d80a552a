package kernel

import (
	"swim/internal/tensor"
)

// convBackDenseAbove is the nonzero fraction of one sample's output
// derivative above which ConvBackward runs that sample through the dense
// products instead of the sparse walk. Behind a max-pool most of a conv
// layer's derivative is exactly zero (84–94% in LeNet's). Behind a ReLU
// about half is: ConvNet's unpooled convs, and ResNet-18's whenever batch
// norm runs on frozen statistics (the Hessian pass), a per-channel scale
// that passes the zeros through. Behind a training-mode batch norm none of
// it is, and there the walk loses to the register-tiled matmuls. On LeNet's
// and ResNet-18's conv geometries the two meet between 70% and 90%
// nonzero, and a ResNet-18 Hessian pass runs faster with the switch here
// than at 50% (see EXPERIMENTS.md).
const convBackDenseAbove = 0.75

// ConvBackward runs one batch of a convolution's backward pass: it adds the
// weight and bias derivatives into dW ([outC, inC·kh·kw]) and dB ([outC])
// and, when dIn is non-nil, overwrites dIn ([B, inC, inH, inW]) with the
// input derivative, given the forward input x, the weights w and the output
// derivative d ([B, outC, outH, outW]). squared runs every product on
// squared inputs and weights, the order-2 pass of a diagonal Hessian.
// Every workspace, the dense products' im2col matrix included, is carved
// from s, which the caller owns and resets; nothing is allocated once s
// has grown to the pass's size.
//
// The result is bit for bit that of the dense per-sample lowering: im2col,
// dW += d·colsᵀ (MatMulTransB, accumulate), dB += the spatial sums of d,
// colD = wᵀ·d (MatMulTransA) and Col2ImAdd(dIn, colD). Each sample either
// runs those products (the blocked backend's loops) or, when at most
// convBackDenseAbove of its derivative is nonzero, a sparse walk that
// visits only the nonzero entries:
//
//   - Weights: each output channel's nonzero derivatives are listed once, in
//     ascending pixel order, and each kernel position sums its terms over
//     that list from +0, reading a zero-padded copy of the input sample
//     instead of an im2col matrix; the sum is then added to dW. Four kernel
//     positions share each pass over the list.
//   - Input: output pixels are visited in descending order, which is the
//     order Col2ImAdd delivers terms to any one input element. Each pixel
//     sums w·d from +0 over its nonzero channels in ascending order, then
//     scatters the sums into a zero-padded input-derivative sample.
//
// Every term the walk skips is a ±0 product that the dense lowering adds to
// a sum seeded at +0, which under round-to-nearest never becomes -0, so
// skipping it changes no bit for finite operands: the argument the package
// contract makes for backends. The walk is a plain function and not a
// Backend method, so wrappers of the Backend interface keep their method
// set; like every backend it answers for finite inputs only.
func ConvBackward(g tensor.Conv2DGeom, outC int, dIn, dW *tensor.Tensor, dB []float64, x, w, d *tensor.Tensor, s *tensor.Arena, squared bool) {
	conv2DCheck(g, outC, d, x, w, dB)
	if !dW.SameShape(w) || dIn != nil && !dIn.SameShape(x) {
		panic("kernel: ConvBackward derivative shape mismatch")
	}
	var cb convBack
	cb.init(g, outC, w.Data, s, squared)
	sampleIn := g.InC * g.InH * g.InW
	sampleOut := outC * cb.nc
	for bi := 0; bi < x.Shape[0]; bi++ {
		var din []float64
		if dIn != nil {
			din = dIn.Data[bi*sampleIn : (bi+1)*sampleIn]
		}
		cb.sample(dW.Data, dB, din, x.Data[bi*sampleIn:(bi+1)*sampleIn], d.Data[bi*sampleOut:(bi+1)*sampleOut])
	}
}

// convBack holds one ConvBackward call's geometry tables and scratch, all
// carved from the call's arena. The walk's padded buffers are carved by the
// first sample that takes the walk, the dense products' by the first that
// does not.
type convBack struct {
	s            *tensor.Arena
	g            tensor.Conv2DGeom
	outC, kr, nc int
	squared      bool
	w            []float64 // weights, squared when squared

	// Offsets into a zero-padded input sample ([inC, hp, wp]): kernel
	// position p reads base[p] + pix[q] for output pixel q.
	hp, wp    int
	base, pix []int

	// Nonzero derivatives of the current sample, channel-major and in
	// ascending pixel order: channel oc's are val[start[oc]:start[oc+1]],
	// each at padded-input offset off[j].
	val   []float64
	off   []int
	start []int

	xp, gp []float64 // padded (squared) input sample; padded input derivative
	chans  []int     // a pixel's nonzero channels, as weight-row offsets
	cv     []float64 // and their derivatives

	cols, colD *tensor.Tensor // dense products' workspace
}

func (cb *convBack) init(g tensor.Conv2DGeom, outC int, w []float64, s *tensor.Arena, squared bool) {
	kr, nc := g.ColRows(), g.ColCols()
	hp, wp := g.InH+2*g.Pad, g.InW+2*g.Pad
	*cb = convBack{
		s: s, g: g, outC: outC, kr: kr, nc: nc, squared: squared, w: w,
		hp: hp, wp: wp,
		base:  s.AllocInts(kr)[:0],
		pix:   s.AllocInts(nc)[:0],
		val:   s.AllocFloats(outC * nc),
		off:   s.AllocInts(outC * nc),
		start: s.AllocInts(outC + 1),
	}
	if squared {
		cb.w = s.AllocFloats(len(w))
		for i, v := range w {
			cb.w[i] = v * v
		}
	}
	for c := 0; c < g.InC; c++ {
		for ki := 0; ki < g.KH; ki++ {
			for kj := 0; kj < g.KW; kj++ {
				cb.base = append(cb.base, (c*hp+ki)*wp+kj)
			}
		}
	}
	for oi := 0; oi < g.OutH; oi++ {
		for oj := 0; oj < g.OutW; oj++ {
			cb.pix = append(cb.pix, oi*g.Stride*wp+oj*g.Stride)
		}
	}
}

// sample runs one sample's backward pass; din is nil when the input
// derivative is not wanted.
func (cb *convBack) sample(dW, dB, din, xs, ds []float64) {
	nnz := cb.gather(ds)
	for oc := range dB {
		s := 0.0
		for _, v := range cb.val[cb.start[oc]:cb.start[oc+1]] {
			s += v
		}
		dB[oc] += s
	}
	if float64(nnz) > convBackDenseAbove*float64(len(ds)) {
		cb.dense(dW, din, xs, ds)
		return
	}
	cb.pad(xs)
	cb.weightGrad(dW)
	if din != nil {
		cb.inputGrad(din, ds)
	}
}

// gather lists the sample's nonzero derivatives per channel and returns
// their count.
func (cb *convBack) gather(ds []float64) int {
	n := 0
	for oc := 0; oc < cb.outC; oc++ {
		cb.start[oc] = n
		for q, v := range ds[oc*cb.nc : (oc+1)*cb.nc] {
			if v != 0 {
				cb.val[n], cb.off[n] = v, cb.pix[q]
				n++
			}
		}
	}
	cb.start[cb.outC] = n
	return n
}

// pad copies the input sample (squared when squared) into the interior of
// the zero-padded sample xp; the border stays zero from its first use.
func (cb *convBack) pad(xs []float64) {
	g := cb.g
	if cb.xp == nil {
		cb.xp = cb.s.AllocFloats(g.InC * cb.hp * cb.wp)
		clear(cb.xp)
	}
	for c := 0; c < g.InC; c++ {
		for ii := 0; ii < g.InH; ii++ {
			src := xs[(c*g.InH+ii)*g.InW : (c*g.InH+ii+1)*g.InW]
			o := (c*cb.hp+ii+g.Pad)*cb.wp + g.Pad
			dst := cb.xp[o : o+g.InW]
			if cb.squared {
				for j, v := range src {
					dst[j] = v * v
				}
			} else {
				copy(dst, src)
			}
		}
	}
}

// weightGrad adds, for every channel and kernel position, the sum of
// d·x over the channel's nonzero derivatives to dW: four kernel positions
// per pass over the list, each a separate sum from +0 in ascending pixel
// order.
func (cb *convBack) weightGrad(dW []float64) {
	kr, xp, base := cb.kr, cb.xp, cb.base
	for oc := 0; oc < cb.outC; oc++ {
		val := cb.val[cb.start[oc]:cb.start[oc+1]]
		off := cb.off[cb.start[oc]:cb.start[oc+1]]
		row := dW[oc*kr : (oc+1)*kr]
		p := 0
		for ; p+4 <= kr; p += 4 {
			x0, x1, x2, x3 := xp[base[p]:], xp[base[p+1]:], xp[base[p+2]:], xp[base[p+3]:]
			var s0, s1, s2, s3 float64
			for j, dv := range val {
				o := off[j]
				s0 += dv * x0[o]
				s1 += dv * x1[o]
				s2 += dv * x2[o]
				s3 += dv * x3[o]
			}
			row[p] += s0
			row[p+1] += s1
			row[p+2] += s2
			row[p+3] += s3
		}
		for ; p < kr; p++ {
			xq := xp[base[p]:]
			s := 0.0
			for j, dv := range val {
				s += dv * xq[off[j]]
			}
			row[p] += s
		}
	}
}

// inputGrad writes the sample's input derivative: pixels in descending
// order, each scattering Σ w·d over its nonzero channels into the padded
// derivative gp, whose interior is then copied out.
func (cb *convBack) inputGrad(din, ds []float64) {
	if cb.gp == nil {
		cb.gp = cb.s.AllocFloats(len(cb.xp))
		cb.chans, cb.cv = cb.s.AllocInts(cb.outC), cb.s.AllocFloats(cb.outC)
	}
	g, kr, nc, w, base, gp := cb.g, cb.kr, cb.nc, cb.w, cb.base, cb.gp
	clear(gp)
	for q := nc - 1; q >= 0; q-- {
		chans, cv := cb.chans[:0], cb.cv[:0]
		for oc := 0; oc < cb.outC; oc++ {
			if v := ds[oc*nc+q]; v != 0 {
				chans = append(chans, oc*kr)
				cv = append(cv, v)
			}
		}
		if len(chans) == 0 {
			continue
		}
		gq := gp[cb.pix[q]:]
		p := 0
		for ; p+4 <= kr; p += 4 {
			var s0, s1, s2, s3 float64
			for t, wo := range chans {
				dv := cv[t]
				wq := w[wo+p : wo+p+4]
				s0 += wq[0] * dv
				s1 += wq[1] * dv
				s2 += wq[2] * dv
				s3 += wq[3] * dv
			}
			gq[base[p]] += s0
			gq[base[p+1]] += s1
			gq[base[p+2]] += s2
			gq[base[p+3]] += s3
		}
		for ; p < kr; p++ {
			s := 0.0
			for t, wo := range chans {
				s += w[wo+p] * cv[t]
			}
			gq[base[p]] += s
		}
	}
	for c := 0; c < g.InC; c++ {
		for ii := 0; ii < g.InH; ii++ {
			o := (c*cb.hp+ii+g.Pad)*cb.wp + g.Pad
			copy(din[(c*g.InH+ii)*g.InW:(c*g.InH+ii+1)*g.InW], gp[o:o+g.InW])
		}
	}
}

// dense runs one sample through the lowering the walk reproduces, on the
// blocked backend's matmul rows: im2col, dW += d·colsᵀ, and, when din is
// wanted, col2im(wᵀ·d).
func (cb *convBack) dense(dW, din, xs, ds []float64) {
	kr, nc := cb.kr, cb.nc
	if cb.cols == nil {
		cb.cols = cb.s.Alloc(kr, nc)
	}
	cb.g.Im2ColInto(cb.cols, xs)
	if cb.squared {
		for i, v := range cb.cols.Data {
			cb.cols.Data[i] = v * v
		}
	}
	for oc := 0; oc < cb.outC; oc++ {
		matMulTransBRowBlocked(dW[oc*kr:(oc+1)*kr], ds[oc*nc:(oc+1)*nc], cb.cols.Data, nc, kr, true)
	}
	if din == nil {
		return
	}
	if cb.colD == nil {
		cb.colD = cb.s.Alloc(kr, nc)
	}
	for p := 0; p < kr; p++ {
		matMulTransARowBlocked(cb.colD.Data[p*nc:(p+1)*nc], cb.w, p, kr, ds, cb.outC, nc, false)
	}
	clear(din)
	cb.g.Col2ImAdd(din, cb.colD)
}
