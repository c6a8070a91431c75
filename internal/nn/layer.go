// Package nn is a from-scratch neural-network substrate sufficient to
// implement, train, and run the paper's CFNN on the CPU: 2D/3D convolutions,
// depthwise separable convolutions, a CBAM-style channel-attention block,
// dense layers, ReLU/Sigmoid, MSE loss, SGD/Adam optimizers, and weight
// serialization.
//
// Layout conventions: feature maps are channel-major tensors — rank-3
// (C, H, W) for 2D networks and rank-4 (C, D, H, W) for 3D networks.
// Training processes one sample at a time; minibatches accumulate gradients
// across samples before an optimizer step, which is equivalent to (and
// simpler than) a batch dimension for the tiny models involved.
package nn

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/tensor"
)

// Param is one learnable tensor and its gradient accumulator.
type Param struct {
	Name string
	W    *tensor.Tensor
	G    *tensor.Tensor
}

func newParam(name string, shape ...int) *Param {
	return &Param{Name: name, W: tensor.New(shape...), G: tensor.New(shape...)}
}

// ZeroGrad clears the gradient accumulator.
func (p *Param) ZeroGrad() { p.G.Zero() }

// Size returns the number of scalar weights.
func (p *Param) Size() int { return p.W.Len() }

// Layer is a differentiable module.
//
// Forward consumes an input tensor and returns the output; the layer caches
// whatever it needs for the following Backward. Backward consumes dL/dout,
// accumulates parameter gradients (+=), and returns dL/din. A layer must be
// used in strict Forward-then-Backward alternation (per sample), which the
// Trainer guarantees.
type Layer interface {
	Forward(x *tensor.Tensor) (*tensor.Tensor, error)
	Backward(gradOut *tensor.Tensor) (*tensor.Tensor, error)
	Params() []*Param
	Name() string
}

// Sequential chains layers.
type Sequential struct {
	Layers []*NamedLayer
}

// NamedLayer pairs a layer with its position for error messages.
type NamedLayer struct {
	Layer Layer
}

// NewSequential builds a sequential container.
func NewSequential(layers ...Layer) *Sequential {
	s := &Sequential{}
	for _, l := range layers {
		s.Layers = append(s.Layers, &NamedLayer{Layer: l})
	}
	return s
}

// Forward implements Layer.
func (s *Sequential) Forward(x *tensor.Tensor) (*tensor.Tensor, error) {
	var err error
	for i, nl := range s.Layers {
		x, err = nl.Layer.Forward(x)
		if err != nil {
			return nil, fmt.Errorf("nn: layer %d (%s): %w", i, nl.Layer.Name(), err)
		}
	}
	return x, nil
}

// Backward implements Layer.
func (s *Sequential) Backward(g *tensor.Tensor) (*tensor.Tensor, error) {
	var err error
	for i := len(s.Layers) - 1; i >= 0; i-- {
		g, err = s.Layers[i].Layer.Backward(g)
		if err != nil {
			return nil, fmt.Errorf("nn: layer %d (%s) backward: %w", i, s.Layers[i].Layer.Name(), err)
		}
	}
	return g, nil
}

// Params implements Layer.
func (s *Sequential) Params() []*Param {
	var ps []*Param
	for _, nl := range s.Layers {
		ps = append(ps, nl.Layer.Params()...)
	}
	return ps
}

// Name implements Layer.
func (s *Sequential) Name() string { return "sequential" }

// ParamCount sums scalar weights across params.
func ParamCount(ps []*Param) int {
	n := 0
	for _, p := range ps {
		n += p.Size()
	}
	return n
}

// ZeroGrads clears all gradient accumulators.
func ZeroGrads(ps []*Param) {
	for _, p := range ps {
		p.ZeroGrad()
	}
}

// ScaleGrads multiplies all gradients by s (e.g. 1/batchSize).
func ScaleGrads(ps []*Param, s float32) {
	for _, p := range ps {
		p.G.Scale(s)
	}
}

// heInit fills w with He-normal initialization for the given fan-in.
func heInit(rng *rand.Rand, w *tensor.Tensor, fanIn int) {
	std := math.Sqrt(2.0 / float64(fanIn))
	d := w.Data()
	for i := range d {
		d[i] = float32(rng.NormFloat64() * std)
	}
}

// xavierInit fills w with Glorot-uniform initialization.
func xavierInit(rng *rand.Rand, w *tensor.Tensor, fanIn, fanOut int) {
	limit := math.Sqrt(6.0 / float64(fanIn+fanOut))
	d := w.Data()
	for i := range d {
		// u+u is u*2 exactly; the conversion stops arm64 fusing the
		// inlined Float64 scaling into the add.
		u := float64(rng.Float64())
		d[i] = float32((u + u - 1) * limit)
	}
}

func shapeEq(t *tensor.Tensor, shape ...int) bool {
	if t.Rank() != len(shape) {
		return false
	}
	for i, d := range shape {
		if t.Dim(i) != d {
			return false
		}
	}
	return true
}
