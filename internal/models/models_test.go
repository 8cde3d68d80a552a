package models

import (
	"testing"

	"swim/internal/rng"
	"swim/internal/tensor"
)

func randBatch(r *rng.Source, shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
	for i := range t.Data {
		t.Data[i] = r.Gauss(0, 1)
	}
	return t
}

func TestLeNetShapesAndSize(t *testing.T) {
	r := rng.New(1)
	net := LeNet(10, 4, r)
	out := net.Forward(randBatch(r, 2, 1, 28, 28), false, tensor.NewArena())
	if out.Shape[0] != 2 || out.Shape[1] != 10 {
		t.Fatalf("lenet output shape %v", out.Shape)
	}
	// Classic LeNet-5 weight count (conv 150+2400, fc 48000+10080+840).
	if got := net.NumMappedWeights(); got != 61470 {
		t.Fatalf("lenet mapped weights = %d, want 61470", got)
	}
}

func TestConvNetShapes(t *testing.T) {
	r := rng.New(2)
	net := ConvNet(10, 4, 6, r)
	out := net.Forward(randBatch(r, 2, 3, 32, 32), false, tensor.NewArena())
	if out.Shape[0] != 2 || out.Shape[1] != 10 {
		t.Fatalf("convnet output shape %v", out.Shape)
	}
}

func TestResNet18ShapesAndBlocks(t *testing.T) {
	r := rng.New(3)
	net := ResNet18(40, 4, 6, r)
	out := net.Forward(randBatch(r, 2, 3, 32, 32), false, tensor.NewArena())
	if out.Shape[0] != 2 || out.Shape[1] != 40 {
		t.Fatalf("resnet output shape %v", out.Shape)
	}
	// 17 mapped conv weights (stem + 16 block convs + 3 projections) + fc.
	mapped := net.MappedParams()
	if len(mapped) != 1+16+3+1 {
		t.Fatalf("resnet mapped param tensors = %d, want 21", len(mapped))
	}
}

func TestResNetWidthScalesParams(t *testing.T) {
	r := rng.New(4)
	small := ResNet18(10, 4, 6, r).NumMappedWeights()
	big := ResNet18(10, 8, 6, rng.New(4)).NumMappedWeights()
	if big <= small*3 { // conv params scale ~quadratically in width
		t.Fatalf("width scaling looks wrong: w4=%d w8=%d", small, big)
	}
}

func TestLeNetFullPasses(t *testing.T) {
	// The architecture must run a full forward+backward+second-backward
	// without shape errors and with a positive initial loss.
	r := rng.New(5)
	net := LeNet(10, 4, rng.New(6))
	x := randBatch(r, 2, 1, 28, 28)
	net.ZeroGrad()
	if loss := net.LossGrad(x, []int{0, 1}, true, tensor.NewArena()); loss <= 0 {
		t.Fatalf("lenet loss = %v", loss)
	}
	net.ZeroHess()
	net.AccumulateHessian(x, []int{0, 1}, tensor.NewArena())
}

func TestConvNetAndResNetFullPasses(t *testing.T) {
	r := rng.New(7)
	cn := ConvNet(10, 4, 6, rng.New(8))
	x := randBatch(r, 2, 3, 32, 32)
	cn.ZeroGrad()
	cn.LossGrad(x, []int{0, 1}, true, tensor.NewArena())
	cn.ZeroHess()
	cn.AccumulateHessian(x, []int{0, 1}, tensor.NewArena())

	rn := ResNet18(10, 4, 6, rng.New(9))
	rn.ZeroGrad()
	rn.LossGrad(x, []int{0, 1}, true, tensor.NewArena())
	rn.ZeroHess()
	rn.AccumulateHessian(x, []int{0, 1}, tensor.NewArena())
	for _, p := range rn.Params() {
		for _, v := range p.Hess.Data {
			if v < 0 {
				t.Fatalf("resnet %s has negative hessian entry", p.Name)
			}
		}
	}
}
