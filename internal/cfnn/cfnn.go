// Package cfnn implements the paper's Cross-Field Neural Network (Figure 4):
// a compact CNN that maps the first-order backward differences of anchor
// fields to the predicted first-order backward differences of the target
// field along every axis.
//
// Architecture (Section III-D2): initial convolution → depthwise separable
// convolution (depthwise + pointwise) → channel attention (CBAM-style) →
// final convolution. Inputs and targets are normalized to [0, 300]
// (Section IV-B, Figure 5) using statistics captured at training time, so
// one trained model serves every error bound — normalization happens on
// original values, prequantization afterwards.
package cfnn

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/diff"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// NormScale is the normalization range the paper trains CFNN on.
const NormScale = 300.0

// internalScale converts paper-normalized values ([0,300]) to the
// zero-centered, ~unit-variance values the network actually computes on.
// Purely an implementation detail: data normalization and reported training
// losses stay in the paper's 0-300 units.
const internalScale = NormScale / 4

// Config describes a CFNN instance.
type Config struct {
	SpatialRank int  // 2 or 3
	NumAnchors  int  // anchor fields feeding the prediction
	Features    int  // width of the hidden feature maps
	Kernel      int  // odd convolution kernel size (default 3)
	Reduction   int  // channel-attention bottleneck ratio (default 4)
	NoAttention bool // ablation: drop the channel-attention block
	Seed        int64
}

// InChannels is one backward-difference channel per anchor per axis.
func (c Config) InChannels() int { return c.NumAnchors * c.SpatialRank }

// OutChannels is one predicted backward-difference channel per axis.
func (c Config) OutChannels() int { return c.SpatialRank }

func (c Config) withDefaults() Config {
	if c.Kernel == 0 {
		c.Kernel = 3
	}
	if c.Reduction == 0 {
		c.Reduction = 4
	}
	return c
}

func (c Config) validate() error {
	if c.SpatialRank != 2 && c.SpatialRank != 3 {
		return fmt.Errorf("cfnn: spatial rank must be 2 or 3, got %d", c.SpatialRank)
	}
	if c.NumAnchors < 1 {
		return fmt.Errorf("cfnn: need at least one anchor, got %d", c.NumAnchors)
	}
	if c.Features < 1 {
		return fmt.Errorf("cfnn: features must be >= 1, got %d", c.Features)
	}
	if c.Kernel < 1 || c.Kernel%2 == 0 {
		return fmt.Errorf("cfnn: kernel must be odd positive, got %d", c.Kernel)
	}
	if c.Reduction < 1 {
		return fmt.Errorf("cfnn: reduction must be >= 1, got %d", c.Reduction)
	}
	return nil
}

// floats is the number of float32 values a saved model of this
// configuration holds: six normalization arrays and every layer's
// parameters, as New builds them. It is a float64 so that no header
// value can overflow it; the products sit in explicit conversions so
// that no compiler fuses them into the adds.
func (c Config) floats() float64 {
	f, in, out := float64(c.Features), float64(c.InChannels()), float64(c.OutChannels())
	taps := math.Pow(float64(c.Kernel), float64(c.SpatialRank))
	n := float64(3*(in+out)) + float64(in*taps*f) + float64(taps*f) + float64(f*f) + float64(taps*f*out) + float64(3*f) + out
	if !c.NoAttention {
		hid := float64(max(1, c.Features/c.Reduction))
		n += float64(2*hid*f) + hid + f
	}
	return n
}

// Model is a CFNN plus the per-channel normalization captured at training
// time.
type Model struct {
	Cfg Config
	net *nn.Sequential

	// Normalization: norm = (x − off) · scale, inverse x = norm/scale + off.
	// A zero scale marks a constant channel (normalizes to 0, denormalizes
	// to the offset). The *Mean arrays hold each channel's mean in
	// normalized units; the network computes on (norm − mean)/internalScale.
	inOff, inScale   []float32
	outOff, outScale []float32
	inMean, outMean  []float32
	trained          bool
}

// New builds an untrained CFNN.
func New(cfg Config) (*Model, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	inC, outC, f, k, r := cfg.InChannels(), cfg.OutChannels(), cfg.Features, cfg.Kernel, cfg.SpatialRank
	c1, err := nn.NewConv(rng, r, inC, f, k)
	if err != nil {
		return nil, err
	}
	dw, err := nn.NewDepthwise(rng, r, f, k)
	if err != nil {
		return nil, err
	}
	pw, err := nn.NewConv(rng, r, f, f, 1)
	if err != nil {
		return nil, err
	}
	attn, err := nn.NewChannelAttention(rng, f, cfg.Reduction)
	if err != nil {
		return nil, err
	}
	c2, err := nn.NewConv(rng, r, f, outC, k)
	if err != nil {
		return nil, err
	}
	layers := []nn.Layer{c1, nn.NewReLU(), dw, pw, nn.NewReLU(), attn, c2}
	if cfg.NoAttention {
		layers = []nn.Layer{c1, nn.NewReLU(), dw, pw, nn.NewReLU(), c2}
	}
	m := &Model{
		Cfg:      cfg,
		net:      nn.NewSequential(layers...),
		inOff:    make([]float32, inC),
		inScale:  make([]float32, inC),
		outOff:   make([]float32, outC),
		outScale: make([]float32, outC),
		inMean:   make([]float32, inC),
		outMean:  make([]float32, outC),
	}
	return m, nil
}

// ParamCount returns the number of learnable scalars (Table III's "Model
// Size CFNN" column).
func (m *Model) ParamCount() int { return nn.ParamCount(m.net.Params()) }

// Trained reports whether normalization statistics have been captured.
func (m *Model) Trained() bool { return m.trained }

// ErrNotTrained is returned by PredictDiffs on an untrained model.
var ErrNotTrained = errors.New("cfnn: model not trained")

// validateAnchors checks the anchor list against the model configuration
// without allocating.
func (m *Model) validateAnchors(anchors []*tensor.Tensor) error {
	if len(anchors) != m.Cfg.NumAnchors {
		return fmt.Errorf("cfnn: got %d anchors, config wants %d", len(anchors), m.Cfg.NumAnchors)
	}
	for ai, a := range anchors {
		if a.Rank() != m.Cfg.SpatialRank {
			return fmt.Errorf("cfnn: anchor %d rank %d != spatial rank %d", ai, a.Rank(), m.Cfg.SpatialRank)
		}
		if !a.SameShape(anchors[0]) {
			return fmt.Errorf("cfnn: anchor %d shape %v != %v", ai, a.Shape(), anchors[0].Shape())
		}
	}
	return nil
}

// anchorDiffChannels computes the backward-difference channels of the
// anchor fields in (anchor-major, axis-minor) order. The coordinate-0
// boundary hyperplane of each channel is zeroed: the invertible backward
// convention stores the raw value there (see internal/diff), which would
// otherwise dominate the normalization statistics and inject unlearnable
// targets. The codec applies the same convention on both sides, so this is
// purely a representation choice.
func (m *Model) anchorDiffChannels(anchors []*tensor.Tensor) ([]*tensor.Tensor, error) {
	if err := m.validateAnchors(anchors); err != nil {
		return nil, err
	}
	var chans []*tensor.Tensor
	for _, a := range anchors {
		ds, err := diffChannels(a)
		if err != nil {
			return nil, err
		}
		chans = append(chans, ds...)
	}
	return chans, nil
}

// diffChannels computes the backward differences of t along every axis with
// the boundary hyperplane zeroed.
func diffChannels(t *tensor.Tensor) ([]*tensor.Tensor, error) {
	ds, err := diff.AllBackward(t)
	if err != nil {
		return nil, err
	}
	for axis, d := range ds {
		zeroBoundary(d, axis)
	}
	return ds, nil
}

// zeroBoundary clears the hyperplane where the given axis' coordinate is 0.
func zeroBoundary(t *tensor.Tensor, axis int) {
	shape := t.Shape()
	strides := t.Strides()
	d := t.Data()
	switch t.Rank() {
	case 2:
		if axis == 0 {
			for j := 0; j < shape[1]; j++ {
				d[j] = 0
			}
		} else {
			for i := 0; i < shape[0]; i++ {
				d[i*strides[0]] = 0
			}
		}
	case 3:
		switch axis {
		case 0:
			for i := 0; i < strides[0]; i++ {
				d[i] = 0
			}
		case 1:
			for k := 0; k < shape[0]; k++ {
				base := k * strides[0]
				for j := 0; j < shape[2]; j++ {
					d[base+j] = 0
				}
			}
		case 2:
			for k := 0; k < shape[0]; k++ {
				for i := 0; i < shape[1]; i++ {
					d[k*strides[0]+i*strides[1]] = 0
				}
			}
		}
	}
}

// captureNorm stores [0,NormScale] normalization stats for a channel list.
func captureNorm(chans []*tensor.Tensor, off, scale []float32) {
	for i, ch := range chans {
		mn, mx := ch.MinMax()
		off[i] = mn
		if mx > mn {
			scale[i] = NormScale / (mx - mn)
		} else {
			scale[i] = 0
		}
	}
}

// captureMeans stores each channel's mean in normalized ([0,NormScale])
// units.
func captureMeans(chans []*tensor.Tensor, off, scale, mean []float32) {
	for i, ch := range chans {
		var sum float64
		for _, v := range ch.Data() {
			sum += float64((v - off[i]) * scale[i])
		}
		mean[i] = float32(sum / float64(ch.Len()))
	}
}

// netValue maps a physical value to the network's internal representation.
func netValue(v, off, scale, mean float32) float32 {
	return (float32((v-off)*scale) - mean) / internalScale
}

// stack assembles channels into one (C, spatial...) tensor in network
// units.
func stack(chans []*tensor.Tensor, off, scale, mean []float32) *tensor.Tensor {
	spatialShape := chans[0].Shape()
	shape := append([]int{len(chans)}, spatialShape...)
	out := tensor.New(shape...)
	per := chans[0].Len()
	od := out.Data()
	for c, ch := range chans {
		o, s, mu := off[c], scale[c], mean[c]
		dst := od[c*per : (c+1)*per]
		for i, v := range ch.Data() {
			dst[i] = netValue(v, o, s, mu)
		}
	}
	return out
}

// PredictDiffs runs full-field inference: it computes the anchors' backward
// differences, normalizes them with the training statistics, runs the
// network, and denormalizes the outputs into physical-unit difference
// fields — one per axis.
//
// Anchors should be the *decompressed* anchor fields so compressor and
// decompressor see bit-identical inputs.
func (m *Model) PredictDiffs(anchors []*tensor.Tensor) ([]*tensor.Tensor, error) {
	return m.PredictDiffsWith(anchors, nil, 0)
}

// outKeys names the arena buffers holding the denormalized per-axis
// output difference fields.
var outKeys = [3]string{"cfnn.out0", "cfnn.out1", "cfnn.out2"}

// PredictDiffsWith is PredictDiffs with the performance knobs of the
// inference hot path exposed:
//
//   - arena supplies all scratch, including the returned tensors; a
//     steady-state call with a warmed arena performs zero heap
//     allocations (at workers <= 1 — parallel dispatch allocates
//     goroutine frames). nil allocates a private arena. Returned tensors
//     are valid until the arena's next use.
//   - workers bounds kernel parallelism (<= 0 means GOMAXPROCS).
//
// core's chunk loop calls it once per chunk, on the anchors' chunk views.
// PredictDiffsWith never mutates the model, so concurrent calls on one
// model are safe as long as each uses its own arena.
func (m *Model) PredictDiffsWith(anchors []*tensor.Tensor, arena *nn.Arena, workers int) ([]*tensor.Tensor, error) {
	if !m.trained {
		return nil, ErrNotTrained
	}
	if err := m.validateAnchors(anchors); err != nil {
		return nil, err
	}
	if arena == nil {
		arena = nn.NewArena()
	}
	spatial := anchors[0].Shape()
	r := len(spatial)
	per := anchors[0].Len()

	// Build the stacked network input: each channel plane gets the
	// backward differences of one (anchor, axis) pair in a float32 scratch
	// plane, boundary hyperplane zeroed, then normalized to network units
	// and widened into the float64 input — the one widening of the pass
	// (the activations stay float64 through every layer).
	var inShape [4]int
	inShape[0] = m.Cfg.InChannels()
	copy(inShape[1:], spatial)
	x := m.net.InferInput(arena, inShape[:r+1]...)
	ch := arena.Tensor("cfnn.ch", spatial...)
	chd := ch.Data()
	c := 0
	for _, a := range anchors {
		for axis := 0; axis < r; axis++ {
			if err := diff.AlongInto(ch, a, axis, diff.Backward); err != nil {
				return nil, err
			}
			zeroBoundary(ch, axis)
			o, s, mu := m.inOff[c], m.inScale[c], m.inMean[c]
			dst := x.Data[c*per : (c+1)*per]
			for i, v := range chd {
				dst[i] = float64(netValue(v, o, s, mu))
			}
			c++
		}
	}

	y, err := m.net.Infer(x, arena, workers)
	if err != nil {
		return nil, err
	}

	// Narrow once: every output value is float32-exact.
	outC := m.Cfg.OutChannels()
	outs := arena.Tensors("cfnn.outs", outC)
	for c := range outs {
		t := arena.Tensor(outKeys[c], spatial...)
		o, s, mu := m.outOff[c], m.outScale[c], m.outMean[c]
		src := y.Data[c*per : (c+1)*per]
		if s == 0 {
			t.Fill(o)
		} else {
			inv := 1 / s
			td := t.Data()
			for i, v := range src {
				norm := float32(float32(v)*internalScale) + mu
				td[i] = float32(norm*inv) + o
			}
		}
		outs[c] = t
	}
	return outs, nil
}
