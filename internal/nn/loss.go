package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// MSELoss computes mean squared error and its gradient with respect to the
// prediction: L = mean((pred-target)^2), dL/dpred = 2(pred-target)/N.
func MSELoss(pred, target *tensor.Tensor) (float64, *tensor.Tensor, error) {
	if !pred.SameShape(target) {
		return 0, nil, fmt.Errorf("nn: mse shape mismatch %v vs %v", pred.Shape(), target.Shape())
	}
	n := pred.Len()
	if n == 0 {
		return 0, nil, fmt.Errorf("nn: mse on empty tensors")
	}
	grad := tensor.New(pred.Shape()...)
	pd, td, gd := pred.Data(), target.Data(), grad.Data()
	var sum float64
	scale := 2 / float64(n)
	for i := range pd {
		d := float64(pd[i]) - float64(td[i])
		sum += float64(d * d)
		gd[i] = float32(d * scale)
	}
	return sum / float64(n), grad, nil
}

// MAELoss computes mean absolute error and its (sub)gradient — provided for
// loss-function ablations.
func MAELoss(pred, target *tensor.Tensor) (float64, *tensor.Tensor, error) {
	if !pred.SameShape(target) {
		return 0, nil, fmt.Errorf("nn: mae shape mismatch %v vs %v", pred.Shape(), target.Shape())
	}
	n := pred.Len()
	if n == 0 {
		return 0, nil, fmt.Errorf("nn: mae on empty tensors")
	}
	grad := tensor.New(pred.Shape()...)
	pd, td, gd := pred.Data(), target.Data(), grad.Data()
	var sum float64
	scale := 1 / float64(n)
	for i := range pd {
		d := float64(pd[i]) - float64(td[i])
		if d > 0 {
			sum += d
			gd[i] = float32(scale)
		} else {
			sum -= d
			gd[i] = float32(-scale)
		}
	}
	return sum / float64(n), grad, nil
}
