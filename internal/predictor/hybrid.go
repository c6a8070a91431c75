package predictor

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// Hybrid is the paper's hybrid prediction model (Section III-D3): a learned
// linear combination of the n+1 candidate predictions (Lorenzo plus n
// directional cross-field predictions) with a bias term.
//
//	pred = b + Σ_k w_k · p_k
//
// The paper trains it as a one-layer network with MSE loss; both that
// gradient-descent trainer (TrainGD, used to regenerate Figure 5-right) and
// a closed-form least-squares fit (Fit, used by the pipeline for speed) are
// provided — the two agree on the optimum.
type Hybrid struct {
	W    []float64 // one weight per predictor
	Bias float64
}

// NumParams returns the stored parameter count: len(W) + 1 (bias) —
// 4 for 2D fields and 5 for 3D fields, matching the paper's Table III
// "Model Size Hybrid" column.
func (h *Hybrid) NumParams() int { return len(h.W) + 1 }

// Apply combines one point's candidate predictions.
func (h *Hybrid) Apply(preds []float64) float64 {
	acc := h.Bias
	for k, w := range h.W {
		acc += float64(w * preds[k])
	}
	return acc
}

// ErrBadTraining reports degenerate hybrid training inputs.
var ErrBadTraining = errors.New("predictor: degenerate hybrid training input")

// Fit solves the least-squares problem over sampled points. preds[k][i] is
// predictor k's output at sample i; target[i] is the true prequant value.
func Fit(preds [][]float64, target []float64) (*Hybrid, error) {
	if len(preds) == 0 {
		return nil, fmt.Errorf("%w: no predictors", ErrBadTraining)
	}
	n := len(target)
	if n < len(preds)+1 {
		return nil, fmt.Errorf("%w: %d samples for %d params", ErrBadTraining, n, len(preds)+1)
	}
	for k := range preds {
		if len(preds[k]) != n {
			return nil, fmt.Errorf("%w: predictor %d has %d samples, want %d", ErrBadTraining, k, len(preds[k]), n)
		}
	}
	// Normal equations over columns [preds..., 1]. The constant column is
	// handled by index check rather than a closure — same accumulation
	// order and values, an order of magnitude less call overhead on the
	// per-chunk hot path.
	m := len(preds) + 1
	ata := make([][]float64, m)
	for i := range ata {
		ata[i] = make([]float64, m)
	}
	aty := make([]float64, m)
	for i := 0; i < n; i++ {
		ti := target[i]
		for a := 0; a < m; a++ {
			ca := 1.0
			if a < m-1 {
				ca = preds[a][i]
			}
			aty[a] += float64(ca * ti)
			row := ata[a]
			for b := a; b < m-1; b++ {
				row[b] += float64(ca * preds[b][i])
			}
			row[m-1] += ca
		}
	}
	for a := 0; a < m; a++ {
		for b := 0; b < a; b++ {
			ata[a][b] = ata[b][a]
		}
	}
	// Tikhonov damping keeps collinear predictors (e.g. two cross-field
	// directions that nearly agree) solvable.
	for a := 0; a < m; a++ {
		ata[a][a] += float64(1e-8 * (ata[a][a] + 1))
	}
	w, err := solveSPD(ata, aty)
	if err != nil {
		return nil, err
	}
	return &Hybrid{W: w[:m-1], Bias: w[m-1]}, nil
}

// solveSPD solves Ax=b by Gaussian elimination with partial pivoting (A is
// small: (n+2)²).
func solveSPD(a [][]float64, b []float64) ([]float64, error) {
	m := len(b)
	// Augment.
	for i := 0; i < m; i++ {
		// Pivot.
		p := i
		for r := i + 1; r < m; r++ {
			if math.Abs(a[r][i]) > math.Abs(a[p][i]) {
				p = r
			}
		}
		if math.Abs(a[p][i]) < 1e-30 {
			return nil, fmt.Errorf("%w: singular normal equations", ErrBadTraining)
		}
		a[i], a[p] = a[p], a[i]
		b[i], b[p] = b[p], b[i]
		inv := 1 / a[i][i]
		for r := i + 1; r < m; r++ {
			f := a[r][i] * inv
			if f == 0 {
				continue
			}
			for c := i; c < m; c++ {
				a[r][c] -= float64(f * a[i][c])
			}
			b[r] -= float64(f * b[i])
		}
	}
	x := make([]float64, m)
	for i := m - 1; i >= 0; i-- {
		acc := b[i]
		for c := i + 1; c < m; c++ {
			acc -= float64(a[i][c] * x[c])
		}
		x[i] = acc / a[i][i]
	}
	return x, nil
}

// GDConfig configures the gradient-descent hybrid trainer.
type GDConfig struct {
	Epochs int     // passes over the sample set (default 30)
	LR     float64 // learning rate on normalized features (default 0.1)
	Seed   int64
}

// TrainGD trains the hybrid weights by minibatch gradient descent with MSE
// loss, mirroring the paper's "fast neural network", and returns the
// per-epoch training loss (Figure 5, right panel).
func TrainGD(preds [][]float64, target []float64, cfg GDConfig) (*Hybrid, []float64, error) {
	if len(preds) == 0 || len(target) < len(preds)+1 {
		return nil, nil, fmt.Errorf("%w: insufficient samples", ErrBadTraining)
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 30
	}
	if cfg.LR <= 0 {
		cfg.LR = 0.1
	}
	n := len(target)
	m := len(preds)
	// Feature scaling: GD on raw prequant magnitudes diverges; scale by the
	// target's RMS and unscale the learned weights afterwards (bias scales
	// linearly, weights are scale-free because features and target share
	// the unit).
	var rms float64
	for _, v := range target {
		rms += float64(v * v)
	}
	rms = math.Sqrt(rms/float64(n)) + 1e-12
	inv := 1 / rms

	// Start from zero weights, as a freshly-initialized one-layer network
	// would: the loss curve then shows the convergence the paper plots in
	// Figure 5 (right).
	w := make([]float64, m)
	bias := 0.0
	rng := rand.New(rand.NewSource(cfg.Seed))
	losses := make([]float64, 0, cfg.Epochs)
	gw := make([]float64, m)
	const batch = 256
	for e := 0; e < cfg.Epochs; e++ {
		// One epoch = n/batch minibatch steps over random samples.
		steps := (n + batch - 1) / batch
		for s := 0; s < steps; s++ {
			for k := range gw {
				gw[k] = 0
			}
			gb := 0.0
			for b := 0; b < batch; b++ {
				i := rng.Intn(n)
				pred := bias
				for k := 0; k < m; k++ {
					pred += float64(w[k] * preds[k][i] * inv)
				}
				err := pred - float64(target[i]*inv)
				for k := 0; k < m; k++ {
					gw[k] += float64(err * preds[k][i] * inv)
				}
				gb += err
			}
			scale := cfg.LR * 2 / batch
			for k := 0; k < m; k++ {
				w[k] -= float64(scale * gw[k])
			}
			bias -= float64(scale * gb)
		}
		// Epoch loss over the full sample set (un-normalized units, as the
		// paper reports prequantized-value MSE).
		var loss float64
		for i := 0; i < n; i++ {
			pred := bias * rms
			for k := 0; k < m; k++ {
				pred += float64(w[k] * preds[k][i])
			}
			d := pred - target[i]
			loss += float64(d * d)
		}
		losses = append(losses, loss/float64(n))
	}
	return &Hybrid{W: append([]float64(nil), w...), Bias: bias * rms}, losses, nil
}

// WeightShare returns each predictor's |w| share of the total |w| mass —
// the quantity the paper reports when discussing which predictor dominates
// (e.g. 67% on the z-axis difference for Wf48).
func (h *Hybrid) WeightShare() []float64 {
	total := 0.0
	for _, w := range h.W {
		total += math.Abs(w)
	}
	out := make([]float64, len(h.W))
	if total == 0 {
		return out
	}
	for k, w := range h.W {
		out[k] = math.Abs(w) / total
	}
	return out
}
