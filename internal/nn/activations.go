package nn

import "fmt"

// ReLU is the rectified linear activation, applied element-wise.
type ReLU struct {
	out Act // training output, kept by Forward
}

// NewReLU returns a ReLU layer.
func NewReLU() *ReLU { return &ReLU{} }

// Name implements Layer.
func (r *ReLU) Name() string { return "relu" }

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// Infer implements Layer. ReLU clamps in place with the same relu32 a
// folded store uses. Sequential.Infer only runs it for a ReLU that does not follow a
// convolution.
func (r *ReLU) Infer(x Act, _ string, _ *Arena, _ int) (Act, error) {
	for i, v := range x.Data {
		x.Data[i] = relu32(float32(v))
	}
	return x, nil
}

// Forward implements Layer. It clamps in place: Backward needs only the
// output, whose mask y > 0 is the input's x > 0.
func (r *ReLU) Forward(x Act, _ string, a *Arena) (Act, error) {
	y, err := r.Infer(x, "", a, 1)
	r.out = y
	return y, err
}

// Backward implements Layer. It masks gy in place.
func (r *ReLU) Backward(gy Act, _ string, _ *Arena) (Act, error) {
	if r.out.Data == nil {
		return Act{}, fmt.Errorf("nn: relu backward before forward")
	}
	if gy.rank != r.out.rank || gy.shape != r.out.shape {
		return Act{}, fmt.Errorf("nn: relu gradOut shape %v != output %v", gy.Shape(), r.out.Shape())
	}
	for i, y := range r.out.Data {
		if !(y > 0) {
			gy.Data[i] = 0
		}
	}
	return gy, nil
}
