package nn

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/tensor"
)

// ChannelAttention is the CBAM-style channel-attention block the CFNN uses
// (Section III-D2): per-channel global average- and max-pooled descriptors
// pass through a shared two-layer MLP with a reduction bottleneck; the two
// paths are summed and squashed by a sigmoid into per-channel weights that
// rescale the input feature map.
//
// Works on any channel-major rank (C, spatial...) input.
type ChannelAttention struct {
	C, R int    // channels and reduction ratio
	w1   *Param // (C/R, C)
	b1   *Param // (C/R)
	w2   *Param // (C, C/R)
	b2   *Param // (C)

	// Forward caches.
	lastIn *tensor.Tensor
	avg    []float64
	mx     []float64
	argmax []int
	h1Avg  []float64 // post-ReLU hidden, avg path
	h1Max  []float64
	zSum   []float64 // pre-sigmoid sum of both paths
	attn   []float64 // sigmoid output
}

// NewChannelAttention builds the block; reduction r must divide into at
// least one hidden unit (hidden = max(1, C/R)).
func NewChannelAttention(rng *rand.Rand, c, r int) (*ChannelAttention, error) {
	if c < 1 || r < 1 {
		return nil, fmt.Errorf("nn: channel attention invalid c=%d r=%d", c, r)
	}
	hid := c / r
	if hid < 1 {
		hid = 1
	}
	a := &ChannelAttention{
		C: c, R: r,
		w1: newParam("attn.w1", hid, c),
		b1: newParam("attn.b1", hid),
		w2: newParam("attn.w2", c, hid),
		b2: newParam("attn.b2", c),
	}
	xavierInit(rng, a.w1.W, c, hid)
	xavierInit(rng, a.w2.W, hid, c)
	return a, nil
}

// Hidden returns the bottleneck width.
func (a *ChannelAttention) Hidden() int { return a.w1.W.Dim(0) }

// Name implements Layer.
func (a *ChannelAttention) Name() string { return fmt.Sprintf("chan-attn(c=%d,r=%d)", a.C, a.R) }

// Params implements Layer.
func (a *ChannelAttention) Params() []*Param { return []*Param{a.w1, a.b1, a.w2, a.b2} }

// Forward implements Layer.
func (a *ChannelAttention) Forward(x *tensor.Tensor) (*tensor.Tensor, error) {
	if x.Rank() < 2 || x.Dim(0) != a.C {
		return nil, fmt.Errorf("nn: channel attention wants (%d, spatial...), got %v", a.C, x.Shape())
	}
	a.lastIn = x
	spatial := x.Len() / a.C
	xd := x.Data()

	a.avg = resizeF64(a.avg, a.C)
	a.mx = resizeF64(a.mx, a.C)
	a.argmax = resizeInt(a.argmax, a.C)
	for c := 0; c < a.C; c++ {
		base := c * spatial
		sum := 0.0
		best := math.Inf(-1)
		bestIdx := base
		for i := base; i < base+spatial; i++ {
			v := float64(xd[i])
			sum += v
			if v > best {
				best = v
				bestIdx = i
			}
		}
		a.avg[c] = sum / float64(spatial)
		a.mx[c] = best
		a.argmax[c] = bestIdx
	}

	hid := a.Hidden()
	a.h1Avg = resizeF64(a.h1Avg, hid)
	a.h1Max = resizeF64(a.h1Max, hid)
	zAvg := a.mlpForward(a.avg, a.h1Avg)
	zMax := a.mlpForward(a.mx, a.h1Max)

	a.zSum = resizeF64(a.zSum, a.C)
	a.attn = resizeF64(a.attn, a.C)
	for c := 0; c < a.C; c++ {
		a.zSum[c] = zAvg[c] + zMax[c]
		a.attn[c] = sigmoid(a.zSum[c])
	}

	out := tensor.New(x.Shape()...)
	od := out.Data()
	for c := 0; c < a.C; c++ {
		w := float32(a.attn[c])
		base := c * spatial
		for i := base; i < base+spatial; i++ {
			od[i] = xd[i] * w
		}
	}
	return out, nil
}

// mlpForward runs the shared MLP on descriptor s, storing the post-ReLU
// hidden activations in h1 and returning the output logits.
func (a *ChannelAttention) mlpForward(s, h1 []float64) []float64 {
	z := make([]float64, a.C)
	a.mlpInto(s, h1, z)
	return z
}

// mlpInto is mlpForward writing the logits into caller-owned z, for the
// alloc-free inference path.
func (a *ChannelAttention) mlpInto(s, h1, z []float64) {
	hid := a.Hidden()
	w1, b1 := a.w1.W.Data(), a.b1.W.Data()
	w2, b2 := a.w2.W.Data(), a.b2.W.Data()
	for h := 0; h < hid; h++ {
		acc := float64(b1[h])
		for c := 0; c < a.C; c++ {
			acc += float64(float64(w1[h*a.C+c]) * s[c])
		}
		if acc < 0 {
			acc = 0
		}
		h1[h] = acc
	}
	for c := 0; c < a.C; c++ {
		acc := float64(b2[c])
		for h := 0; h < hid; h++ {
			acc += float64(float64(w2[c*hid+h]) * h1[h])
		}
		z[c] = acc
	}
}

// Backward implements Layer.
func (a *ChannelAttention) Backward(gy *tensor.Tensor) (*tensor.Tensor, error) {
	x := a.lastIn
	if x == nil {
		return nil, fmt.Errorf("nn: channel attention backward before forward")
	}
	if !gy.SameShape(x) {
		return nil, fmt.Errorf("nn: channel attention gradOut shape %v != input %v", gy.Shape(), x.Shape())
	}
	spatial := x.Len() / a.C
	xd, gyd := x.Data(), gy.Data()

	// dL/dattn[c] = sum_s gy[c,s]*x[c,s]; dL/dx (direct path) = gy*attn.
	gx := tensor.New(x.Shape()...)
	gxd := gx.Data()
	dAttn := make([]float64, a.C)
	for c := 0; c < a.C; c++ {
		base := c * spatial
		w := float32(a.attn[c])
		var acc float64
		for i := base; i < base+spatial; i++ {
			acc += float64(float64(gyd[i]) * float64(xd[i]))
			gxd[i] = gyd[i] * w
		}
		dAttn[c] = acc
	}
	// Through the sigmoid: dz = dAttn * a(1-a); the same dz feeds both MLP
	// paths (they were summed).
	dz := make([]float64, a.C)
	for c := 0; c < a.C; c++ {
		dz[c] = dAttn[c] * a.attn[c] * (1 - a.attn[c])
	}
	dsAvg := a.mlpBackward(a.avg, a.h1Avg, dz)
	dsMax := a.mlpBackward(a.mx, a.h1Max, dz)

	// Pooling gradients: average spreads evenly; max routes to the argmax.
	inv := 1 / float64(spatial)
	for c := 0; c < a.C; c++ {
		base := c * spatial
		g := float32(dsAvg[c] * inv)
		for i := base; i < base+spatial; i++ {
			gxd[i] += g
		}
		gxd[a.argmax[c]] += float32(dsMax[c])
	}
	return gx, nil
}

// mlpBackward backpropagates dz through the shared MLP for one path,
// accumulating parameter gradients and returning dL/ds.
func (a *ChannelAttention) mlpBackward(s, h1, dz []float64) []float64 {
	hid := a.Hidden()
	w1, w2 := a.w1.W.Data(), a.w2.W.Data()
	gw1, gb1 := a.w1.G.Data(), a.b1.G.Data()
	gw2, gb2 := a.w2.G.Data(), a.b2.G.Data()

	dh1 := make([]float64, hid)
	for c := 0; c < a.C; c++ {
		gb2[c] += float32(dz[c])
		for h := 0; h < hid; h++ {
			gw2[c*hid+h] += float32(dz[c] * h1[h])
			dh1[h] += float64(dz[c] * float64(w2[c*hid+h]))
		}
	}
	ds := make([]float64, a.C)
	for h := 0; h < hid; h++ {
		if h1[h] <= 0 { // ReLU gate (h1 stores post-ReLU values)
			continue
		}
		gb1[h] += float32(dh1[h])
		for c := 0; c < a.C; c++ {
			gw1[h*a.C+c] += float32(dh1[h] * s[c])
			ds[c] += float64(dh1[h] * float64(w1[h*a.C+c]))
		}
	}
	return ds
}

func resizeF64(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

func resizeInt(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}
