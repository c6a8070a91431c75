package nn

import "fmt"

// MSELoss computes mean squared error and its gradient with respect to the
// prediction: L = mean((pred-target)^2), dL/dpred = 2(pred-target)/N,
// each gradient rounded to float32. The gradient is an arena activation
// under its own key.
func MSELoss(pred, target Act, a *Arena) (float64, Act, error) {
	if pred.rank != target.rank || pred.shape != target.shape {
		return 0, Act{}, fmt.Errorf("nn: mse shape mismatch %v vs %v", pred.Shape(), target.Shape())
	}
	n := len(pred.Data)
	if n == 0 {
		return 0, Act{}, fmt.Errorf("nn: mse on empty activations")
	}
	grad := a.actLike("mse.grad", pred.Dim(0), pred)
	var sum float64
	scale := 2 / float64(n)
	for i, p := range pred.Data {
		d := p - target.Data[i]
		sum += float64(d * d)
		grad.Data[i] = float64(float32(d * scale))
	}
	return sum / float64(n), grad, nil
}
