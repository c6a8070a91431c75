package nn

import (
	"fmt"
	"math/rand"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

// DepthwiseConv2D applies one k×k filter per channel (no cross-channel
// mixing) — the first half of a depthwise separable convolution
// (Chollet 2017), which CFNN uses to stay compact (Section III-D2).
type DepthwiseConv2D struct {
	C, K   int
	weight *Param // (C, K, K)
	bias   *Param // (C)
	lastIn *tensor.Tensor
}

// NewDepthwiseConv2D creates a He-initialized depthwise convolution.
func NewDepthwiseConv2D(rng *rand.Rand, c, k int) (*DepthwiseConv2D, error) {
	if c < 1 || k < 1 || k%2 == 0 {
		return nil, fmt.Errorf("nn: depthwise2d invalid config c=%d k=%d", c, k)
	}
	l := &DepthwiseConv2D{
		C: c, K: k,
		weight: newParam("dw2d.w", c, k, k),
		bias:   newParam("dw2d.b", c),
	}
	heInit(rng, l.weight.W, k*k)
	return l, nil
}

// Name implements Layer.
func (l *DepthwiseConv2D) Name() string { return fmt.Sprintf("depthwise2d(c=%d,k=%d)", l.C, l.K) }

// Params implements Layer.
func (l *DepthwiseConv2D) Params() []*Param { return []*Param{l.weight, l.bias} }

// Forward implements Layer. x is (C, H, W). It runs Infer (see
// forwardInfer), so the two are bit-identical by construction.
func (l *DepthwiseConv2D) Forward(x *tensor.Tensor) (*tensor.Tensor, error) {
	if x.Rank() != 3 || x.Dim(0) != l.C {
		return nil, fmt.Errorf("nn: depthwise2d wants (%d,H,W), got %v", l.C, x.Shape())
	}
	l.lastIn = x
	return forwardInfer(l, x)
}

// Backward implements Layer.
func (l *DepthwiseConv2D) Backward(gy *tensor.Tensor) (*tensor.Tensor, error) {
	x := l.lastIn
	if x == nil {
		return nil, fmt.Errorf("nn: depthwise2d backward before forward")
	}
	h, w := x.Dim(1), x.Dim(2)
	if !shapeEq(gy, l.C, h, w) {
		return nil, fmt.Errorf("nn: depthwise2d gradOut shape %v", gy.Shape())
	}
	p := l.K / 2
	gx := tensor.New(l.C, h, w)
	xd, gyd, gxd := x.Data(), gy.Data(), gx.Data()
	wd, gwd, gbd := l.weight.W.Data(), l.weight.G.Data(), l.bias.G.Data()
	parallel.For(l.C, func(c int) {
		base := c * h * w
		wbase := c * l.K * l.K
		var gb float64
		for idx := base; idx < base+h*w; idx++ {
			gb += float64(gyd[idx])
		}
		gbd[c] += float32(gb)
		for ki := 0; ki < l.K; ki++ {
			i0, i1 := outRange(ki, h, p)
			for kj := 0; kj < l.K; kj++ {
				j0, j1 := outRange(kj, w, p)
				var acc float64
				for i := i0; i < i1; i++ {
					xrow := base + (i+ki-p)*w + (kj - p)
					gyrow := base + i*w
					for j := j0; j < j1; j++ {
						acc += float64(float64(gyd[gyrow+j]) * float64(xd[xrow+j]))
					}
				}
				gwd[wbase+ki*l.K+kj] += float32(acc)
			}
		}
		for a := 0; a < h; a++ {
			for b := 0; b < w; b++ {
				var acc float64
				for ki := 0; ki < l.K; ki++ {
					i := a - ki + p
					if i < 0 || i >= h {
						continue
					}
					for kj := 0; kj < l.K; kj++ {
						j := b - kj + p
						if j < 0 || j >= w {
							continue
						}
						acc += float64(float64(wd[wbase+ki*l.K+kj]) * float64(gyd[base+i*w+j]))
					}
				}
				gxd[base+a*w+b] = float32(acc)
			}
		}
	})
	return gx, nil
}

// DepthwiseConv3D is the 3D analogue of DepthwiseConv2D over (C, D, H, W).
type DepthwiseConv3D struct {
	C, K   int
	weight *Param // (C, K, K, K)
	bias   *Param // (C)
	lastIn *tensor.Tensor
}

// NewDepthwiseConv3D creates a He-initialized 3D depthwise convolution.
func NewDepthwiseConv3D(rng *rand.Rand, c, k int) (*DepthwiseConv3D, error) {
	if c < 1 || k < 1 || k%2 == 0 {
		return nil, fmt.Errorf("nn: depthwise3d invalid config c=%d k=%d", c, k)
	}
	l := &DepthwiseConv3D{
		C: c, K: k,
		weight: newParam("dw3d.w", c, k, k, k),
		bias:   newParam("dw3d.b", c),
	}
	heInit(rng, l.weight.W, k*k*k)
	return l, nil
}

// Name implements Layer.
func (l *DepthwiseConv3D) Name() string { return fmt.Sprintf("depthwise3d(c=%d,k=%d)", l.C, l.K) }

// Params implements Layer.
func (l *DepthwiseConv3D) Params() []*Param { return []*Param{l.weight, l.bias} }

// Forward implements Layer. x is (C, D, H, W). It runs Infer (see
// forwardInfer), so the two are bit-identical by construction.
func (l *DepthwiseConv3D) Forward(x *tensor.Tensor) (*tensor.Tensor, error) {
	if x.Rank() != 4 || x.Dim(0) != l.C {
		return nil, fmt.Errorf("nn: depthwise3d wants (%d,D,H,W), got %v", l.C, x.Shape())
	}
	l.lastIn = x
	return forwardInfer(l, x)
}

// Backward implements Layer.
func (l *DepthwiseConv3D) Backward(gy *tensor.Tensor) (*tensor.Tensor, error) {
	x := l.lastIn
	if x == nil {
		return nil, fmt.Errorf("nn: depthwise3d backward before forward")
	}
	d, h, w := x.Dim(1), x.Dim(2), x.Dim(3)
	if !shapeEq(gy, l.C, d, h, w) {
		return nil, fmt.Errorf("nn: depthwise3d gradOut shape %v", gy.Shape())
	}
	vol := d * h * w
	p := l.K / 2
	gx := tensor.New(l.C, d, h, w)
	xd, gyd, gxd := x.Data(), gy.Data(), gx.Data()
	wd, gwd, gbd := l.weight.W.Data(), l.weight.G.Data(), l.bias.G.Data()
	parallel.For(l.C, func(c int) {
		base := c * vol
		wbase := c * l.K * l.K * l.K
		var gb float64
		for idx := base; idx < base+vol; idx++ {
			gb += float64(gyd[idx])
		}
		gbd[c] += float32(gb)
		for kz := 0; kz < l.K; kz++ {
			z0, z1 := outRange(kz, d, p)
			for ki := 0; ki < l.K; ki++ {
				i0, i1 := outRange(ki, h, p)
				for kj := 0; kj < l.K; kj++ {
					j0, j1 := outRange(kj, w, p)
					var acc float64
					for z := z0; z < z1; z++ {
						xz := base + (z+kz-p)*h*w
						gyz := base + z*h*w
						for i := i0; i < i1; i++ {
							xrow := xz + (i+ki-p)*w + (kj - p)
							gyrow := gyz + i*w
							for j := j0; j < j1; j++ {
								acc += float64(float64(gyd[gyrow+j]) * float64(xd[xrow+j]))
							}
						}
					}
					gwd[wbase+kz*l.K*l.K+ki*l.K+kj] += float32(acc)
				}
			}
		}
		for az := 0; az < d; az++ {
			for a := 0; a < h; a++ {
				for b := 0; b < w; b++ {
					var acc float64
					for kz := 0; kz < l.K; kz++ {
						z := az - kz + p
						if z < 0 || z >= d {
							continue
						}
						for ki := 0; ki < l.K; ki++ {
							i := a - ki + p
							if i < 0 || i >= h {
								continue
							}
							for kj := 0; kj < l.K; kj++ {
								j := b - kj + p
								if j < 0 || j >= w {
									continue
								}
								acc += float64(float64(wd[wbase+kz*l.K*l.K+ki*l.K+kj]) * float64(gyd[base+z*h*w+i*w+j]))
							}
						}
					}
					gxd[base+az*h*w+a*w+b] = float32(acc)
				}
			}
		}
	})
	return gx, nil
}
