package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// ReLU is the rectified linear activation, applied element-wise.
type ReLU struct {
	lastIn *tensor.Tensor
}

// NewReLU returns a ReLU layer.
func NewReLU() *ReLU { return &ReLU{} }

// Name implements Layer.
func (r *ReLU) Name() string { return "relu" }

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// Forward implements Layer.
func (r *ReLU) Forward(x *tensor.Tensor) (*tensor.Tensor, error) {
	r.lastIn = x
	out := tensor.New(x.Shape()...)
	xd, od := x.Data(), out.Data()
	for i, v := range xd {
		if v > 0 {
			od[i] = v
		}
	}
	return out, nil
}

// Backward implements Layer.
func (r *ReLU) Backward(gy *tensor.Tensor) (*tensor.Tensor, error) {
	if r.lastIn == nil {
		return nil, fmt.Errorf("nn: relu backward before forward")
	}
	if !gy.SameShape(r.lastIn) {
		return nil, fmt.Errorf("nn: relu gradOut shape %v != input %v", gy.Shape(), r.lastIn.Shape())
	}
	gx := tensor.New(gy.Shape()...)
	xd, gyd, gxd := r.lastIn.Data(), gy.Data(), gx.Data()
	for i := range gxd {
		if xd[i] > 0 {
			gxd[i] = gyd[i]
		}
	}
	return gx, nil
}

// Sigmoid is the logistic activation, applied element-wise.
type Sigmoid struct {
	lastOut *tensor.Tensor
}

// NewSigmoid returns a Sigmoid layer.
func NewSigmoid() *Sigmoid { return &Sigmoid{} }

// Name implements Layer.
func (s *Sigmoid) Name() string { return "sigmoid" }

// Params implements Layer.
func (s *Sigmoid) Params() []*Param { return nil }

// Forward implements Layer.
func (s *Sigmoid) Forward(x *tensor.Tensor) (*tensor.Tensor, error) {
	out := tensor.New(x.Shape()...)
	xd, od := x.Data(), out.Data()
	for i, v := range xd {
		od[i] = float32(sigmoid(float64(v)))
	}
	s.lastOut = out
	return out, nil
}

// Backward implements Layer.
func (s *Sigmoid) Backward(gy *tensor.Tensor) (*tensor.Tensor, error) {
	if s.lastOut == nil {
		return nil, fmt.Errorf("nn: sigmoid backward before forward")
	}
	if !gy.SameShape(s.lastOut) {
		return nil, fmt.Errorf("nn: sigmoid gradOut shape %v != output %v", gy.Shape(), s.lastOut.Shape())
	}
	gx := tensor.New(gy.Shape()...)
	od, gyd, gxd := s.lastOut.Data(), gy.Data(), gx.Data()
	for i := range gxd {
		y := od[i]
		gxd[i] = gyd[i] * y * (1 - y)
	}
	return gx, nil
}

// LeakyReLU is ReLU with a small negative slope, useful as an ablation
// alternative for CFNN activations.
type LeakyReLU struct {
	Alpha  float32
	lastIn *tensor.Tensor
}

// NewLeakyReLU returns a LeakyReLU with the given negative slope (0.01 if
// alpha <= 0).
func NewLeakyReLU(alpha float32) *LeakyReLU {
	if alpha <= 0 {
		alpha = 0.01
	}
	return &LeakyReLU{Alpha: alpha}
}

// Name implements Layer.
func (l *LeakyReLU) Name() string { return fmt.Sprintf("leakyrelu(%.3g)", l.Alpha) }

// Params implements Layer.
func (l *LeakyReLU) Params() []*Param { return nil }

// Forward implements Layer.
func (l *LeakyReLU) Forward(x *tensor.Tensor) (*tensor.Tensor, error) {
	l.lastIn = x
	out := tensor.New(x.Shape()...)
	xd, od := x.Data(), out.Data()
	for i, v := range xd {
		if v > 0 {
			od[i] = v
		} else {
			od[i] = l.Alpha * v
		}
	}
	return out, nil
}

// Backward implements Layer.
func (l *LeakyReLU) Backward(gy *tensor.Tensor) (*tensor.Tensor, error) {
	if l.lastIn == nil {
		return nil, fmt.Errorf("nn: leakyrelu backward before forward")
	}
	if !gy.SameShape(l.lastIn) {
		return nil, fmt.Errorf("nn: leakyrelu gradOut shape %v != input %v", gy.Shape(), l.lastIn.Shape())
	}
	gx := tensor.New(gy.Shape()...)
	xd, gyd, gxd := l.lastIn.Data(), gy.Data(), gx.Data()
	for i := range gxd {
		if xd[i] > 0 {
			gxd[i] = gyd[i]
		} else {
			gxd[i] = gyd[i] * l.Alpha
		}
	}
	return gx, nil
}
