package nn

import (
	"fmt"
	"math/rand"

	"repro/internal/parallel"
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

	in Act // training input, kept by Forward
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

// mlpInto runs the shared MLP on descriptor s, storing the post-ReLU
// hidden activations in h1 and the output logits in z.
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

// Forward implements Layer. It rescales a copy of x under dstKey and
// keeps x for Backward.
func (at *ChannelAttention) Forward(x Act, dstKey string, a *Arena) (Act, error) {
	out := a.actLike(dstKey, x.Dim(0), x)
	copy(out.Data, x.Data)
	y, err := at.Infer(out, "", a, parallel.Workers())
	if err == nil {
		at.in = x
	}
	return y, err
}

// Backward implements Layer. It recomputes the pooled descriptors, the
// hidden activations and the attention weights from the kept input, and
// writes dL/dx over gy.
func (at *ChannelAttention) Backward(gy Act, _ string, a *Arena) (Act, error) {
	x := at.in
	if x.Data == nil {
		return Act{}, fmt.Errorf("nn: channel attention backward before forward")
	}
	if gy.rank != x.rank || gy.shape != x.shape {
		return Act{}, fmt.Errorf("nn: channel attention gradOut shape %v != input %v", gy.Shape(), x.Shape())
	}
	C, hid := at.C, at.Hidden()
	spatial := len(x.Data) / C
	avg, mx := a.F64("attn.avg", C), a.F64("attn.mx", C)
	attnPool(x.Data, avg, mx, spatial, 0, C)
	h1Avg, h1Max := a.F64("attn.h1a", hid), a.F64("attn.h1m", hid)
	zAvg, zMax := a.F64("attn.za", C), a.F64("attn.zb", C)
	at.mlpInto(avg, h1Avg, zAvg)
	at.mlpInto(mx, h1Max, zMax)

	// dL/dattn[c] = Σ gy[c]·x[c]; through the sigmoid, dz = dattn·a(1−a),
	// and the same dz feeds both MLP paths (they were summed). The direct
	// path is dL/dx = gy·w, with w the float32 weight Infer scales by.
	dz := a.F64("attn.dz", C)
	for c := 0; c < C; c++ {
		attn := sigmoid(zAvg[c] + zMax[c])
		w := float32(attn)
		xc, g := x.Data[c*spatial:(c+1)*spatial], gy.Data[c*spatial:(c+1)*spatial]
		var dAttn float64
		for i, v := range xc {
			dAttn += float64(g[i] * v)
			g[i] = float64(float32(g[i]) * w)
		}
		dz[c] = dAttn * attn * (1 - attn)
	}
	dsAvg := at.mlpBackward(avg, h1Avg, dz)
	dsMax := at.mlpBackward(mx, h1Max, dz)

	// Pooling gradients: average spreads evenly; max routes to the first
	// maximal element, the one the pooling scan keeps.
	inv := 1 / float64(spatial)
	for c := 0; c < C; c++ {
		xc, g := x.Data[c*spatial:(c+1)*spatial], gy.Data[c*spatial:(c+1)*spatial]
		ga := float32(dsAvg[c] * inv)
		for i, v := range g {
			g[i] = float64(float32(v) + ga)
		}
		for i, v := range xc {
			if v == mx[c] {
				g[i] = float64(float32(g[i]) + float32(dsMax[c]))
				break
			}
		}
	}
	return gy, nil
}

// mlpBackward backpropagates dz through the shared MLP for one path,
// accumulating parameter gradients and returning dL/ds.
func (a *ChannelAttention) mlpBackward(s, h1, dz []float64) []float64 {
	hid := a.Hidden()
	w1, w2 := a.w1.W.Data(), a.w2.W.Data()
	gw1, gb1 := a.w1.grad(), a.b1.grad()
	gw2, gb2 := a.w2.grad(), a.b2.grad()

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
