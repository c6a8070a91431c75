// Package nn is a from-scratch neural-network substrate sufficient to
// implement, train, and run the paper's CFNN on the CPU: 2D/3D
// convolutions (Conv), depthwise convolutions (Depthwise), a CBAM-style
// channel-attention block, ReLU, MSE loss, the Adam optimizer, and weight
// serialization.
//
// Layout conventions: feature maps are channel-major float64 activations
// (Act) — (C, H, W) for 2D networks and (C, D, H, W) for 3D networks —
// whose values are float32-exact; parameters are float32 tensors.
// Training and inference run on the same kernels (infer.go). Training
// processes one sample at a time; minibatches accumulate gradients
// across samples before an optimizer step, which is equivalent to (and
// simpler than) a batch dimension for the tiny models involved.
package nn

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"repro/internal/tensor"
)

// Param is one learnable tensor and its gradient accumulator. G is nil
// until the first ZeroGrad or Backward, so a model that only runs
// inference never allocates it.
type Param struct {
	Name string
	W    *tensor.Tensor
	G    *tensor.Tensor
}

func newParam(name string, shape ...int) *Param {
	return &Param{Name: name, W: tensor.New(shape...)}
}

// ZeroGrad clears the gradient accumulator, allocating it on first use.
func (p *Param) ZeroGrad() {
	if p.G == nil {
		p.G = tensor.New(p.W.Shape()...)
		return
	}
	p.G.Zero()
}

// grad returns the gradient accumulator's data, allocating it zeroed on
// first use.
func (p *Param) grad() []float32 {
	if p.G == nil {
		p.ZeroGrad()
	}
	return p.G.Data()
}

// Size returns the number of scalar weights.
func (p *Param) Size() int { return p.W.Len() }

// Layer is one differentiable module of a Sequential. Every method
// works on arena-owned float64 activations (Act).
//
// Infer is the inference pass (see infer.go). It
//
//   - mutates no layer state, so one model can run concurrent inference
//     from many goroutines as long as each uses its own Arena;
//   - draws all scratch (including the output activation) from the Arena,
//     so steady-state passes allocate nothing.
//
// Element-wise layers may compute in place and return x itself; layers
// that produce a new activation take it from the arena under dstKey,
// which the caller guarantees is not x's backing buffer. Parallel kernels
// use up to workers goroutines (<= 1 means serial, which is also the
// zero-alloc mode — parallel dispatch allocates goroutine frames).
//
// Forward is the training pass: Infer on the same kernels, keeping what
// Backward needs. A layer whose Backward needs its
// input x writes its output into the arena under dstKey, and x must then
// stay unchanged until Backward; a layer whose Backward needs only its
// output (ReLU) may compute in place.
//
// Backward takes dL/dy, accumulates the parameter gradients (+=), and
// returns dL/dx under gxKey, which the caller guarantees is not gy's
// buffer; it may also overwrite gy and return it. An empty gxKey means
// the caller does not read dL/dx, so the layer may skip it. A layer runs
// in strict Forward-then-Backward alternation, which Sequential keeps.
type Layer interface {
	Infer(x Act, dstKey string, a *Arena, workers int) (Act, error)
	Forward(x Act, dstKey string, a *Arena) (Act, error)
	Backward(gy Act, gxKey string, a *Arena) (Act, error)
	Params() []*Param
	Name() string
}

// Sequential chains layers.
type Sequential struct {
	Layers  []Layer
	fwdKeys []string // Forward's per-layer arena keys
}

// NewSequential builds a sequential container.
func NewSequential(layers ...Layer) *Sequential {
	return &Sequential{Layers: layers}
}

// Forward runs the training pass. Each layer's output lives in the arena
// under its own key, so every layer's input stays there for Backward. The
// returned activation is valid until the arena's next Forward.
func (s *Sequential) Forward(x Act, a *Arena) (Act, error) {
	for len(s.fwdKeys) < len(s.Layers) {
		s.fwdKeys = append(s.fwdKeys, "seq.fwd"+strconv.Itoa(len(s.fwdKeys)))
	}
	for i, l := range s.Layers {
		y, err := l.Forward(x, s.fwdKeys[i], a)
		if err != nil {
			return Act{}, fmt.Errorf("nn: layer %d (%s): %w", i, l.Name(), err)
		}
		x = y
	}
	return x, nil
}

// Backward backpropagates gy, dL/d(output of the last Forward), through
// every layer, accumulating the parameter gradients and ping-ponging the
// activation gradients between two arena buffers. Nothing reads the
// first layer's input gradient, so it is not computed. gy may be
// overwritten.
func (s *Sequential) Backward(gy Act, a *Arena) error {
	next := 0
	for i := len(s.Layers) - 1; i >= 0; i-- {
		key := backwardKeys[next]
		if i == 0 {
			key = ""
		}
		gx, err := s.Layers[i].Backward(gy, key, a)
		if err != nil {
			return fmt.Errorf("nn: layer %d (%s) backward: %w", i, s.Layers[i].Name(), err)
		}
		if !sameBuffer(gy.Data, gx.Data) {
			next = 1 - next
		}
		gy = gx
	}
	return nil
}

// backwardKeys are the arena buffers Sequential.Backward ping-pongs
// between.
var backwardKeys = [2]string{"seq.gping", "seq.gpong"}

// Params returns every layer's parameters in order.
func (s *Sequential) Params() []*Param {
	var ps []*Param
	for _, l := range s.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

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
		if p.G != nil {
			p.G.Scale(s)
		}
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
