package nn

import "math"

// Adam is the Adam optimizer (Kingma & Ba 2015).
type Adam struct {
	LR, Beta1, Beta2, Eps float64
	t                     int
	m, v                  map[*Param][]float64
}

// NewAdam returns an Adam optimizer with standard defaults for zero-valued
// hyperparameters (beta1=0.9, beta2=0.999, eps=1e-8).
func NewAdam(lr float64) *Adam {
	return &Adam{
		LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		m: make(map[*Param][]float64),
		v: make(map[*Param][]float64),
	}
}

// Step applies one update from the accumulated gradients.
func (a *Adam) Step(params []*Param) {
	a.t++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for _, p := range params {
		w, g := p.W.Data(), p.grad()
		m, ok := a.m[p]
		if !ok {
			m = make([]float64, len(w))
			a.m[p] = m
		}
		v, ok := a.v[p]
		if !ok {
			v = make([]float64, len(w))
			a.v[p] = v
		}
		for i := range w {
			gi := float64(g[i])
			m[i] = float64(a.Beta1*m[i]) + float64((1-a.Beta1)*gi)
			v[i] = float64(a.Beta2*v[i]) + float64((1-a.Beta2)*gi*gi)
			mh := m[i] / bc1
			vh := v[i] / bc2
			w[i] -= float32(a.LR * mh / (math.Sqrt(vh) + a.Eps))
		}
	}
}
