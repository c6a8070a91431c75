package nn

import (
	"fmt"
	"math/rand"

	"repro/internal/tensor"
)

// Dense is a fully connected layer over rank-1 tensors: y = Wx + b.
type Dense struct {
	In, Out int
	weight  *Param // (Out, In)
	bias    *Param // (Out)
	lastIn  *tensor.Tensor
}

// NewDense creates a Xavier-initialized dense layer.
func NewDense(rng *rand.Rand, in, out int) (*Dense, error) {
	if in < 1 || out < 1 {
		return nil, fmt.Errorf("nn: dense invalid config in=%d out=%d", in, out)
	}
	d := &Dense{
		In: in, Out: out,
		weight: newParam("dense.w", out, in),
		bias:   newParam("dense.b", out),
	}
	xavierInit(rng, d.weight.W, in, out)
	return d, nil
}

// Name implements Layer.
func (d *Dense) Name() string { return fmt.Sprintf("dense(%d->%d)", d.In, d.Out) }

// Params implements Layer.
func (d *Dense) Params() []*Param { return []*Param{d.weight, d.bias} }

// Forward implements Layer. x must be rank-1 of length In.
func (d *Dense) Forward(x *tensor.Tensor) (*tensor.Tensor, error) {
	if x.Rank() != 1 || x.Dim(0) != d.In {
		return nil, fmt.Errorf("nn: dense wants (%d), got %v", d.In, x.Shape())
	}
	d.lastIn = x
	out := tensor.New(d.Out)
	xd, od := x.Data(), out.Data()
	wd, bd := d.weight.W.Data(), d.bias.W.Data()
	for o := 0; o < d.Out; o++ {
		acc := float64(bd[o])
		row := o * d.In
		for i := 0; i < d.In; i++ {
			acc += float64(float64(wd[row+i]) * float64(xd[i]))
		}
		od[o] = float32(acc)
	}
	return out, nil
}

// Backward implements Layer.
func (d *Dense) Backward(gy *tensor.Tensor) (*tensor.Tensor, error) {
	if d.lastIn == nil {
		return nil, fmt.Errorf("nn: dense backward before forward")
	}
	if gy.Rank() != 1 || gy.Dim(0) != d.Out {
		return nil, fmt.Errorf("nn: dense gradOut shape %v, want (%d)", gy.Shape(), d.Out)
	}
	xd, gyd := d.lastIn.Data(), gy.Data()
	wd := d.weight.W.Data()
	gwd, gbd := d.weight.G.Data(), d.bias.G.Data()
	gx := tensor.New(d.In)
	gxd := gx.Data()
	for o := 0; o < d.Out; o++ {
		g := float64(gyd[o])
		gbd[o] += float32(g)
		row := o * d.In
		for i := 0; i < d.In; i++ {
			gwd[row+i] += float32(g * float64(xd[i]))
			gxd[i] += float32(g * float64(wd[row+i]))
		}
	}
	return gx, nil
}
