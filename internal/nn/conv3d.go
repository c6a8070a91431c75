package nn

import (
	"fmt"
	"math/rand"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

// Conv3D is a stride-1, zero-padded ("same") 3D convolution over
// (C, D, H, W) feature maps. Kernel size must be odd.
type Conv3D struct {
	InC, OutC, K int
	weight       *Param // (OutC, InC, K, K, K)
	bias         *Param // (OutC)
	lastIn       *tensor.Tensor
}

// NewConv3D creates a He-initialized 3D convolution.
func NewConv3D(rng *rand.Rand, inC, outC, k int) (*Conv3D, error) {
	if inC < 1 || outC < 1 || k < 1 || k%2 == 0 {
		return nil, fmt.Errorf("nn: conv3d invalid config inC=%d outC=%d k=%d (k must be odd)", inC, outC, k)
	}
	c := &Conv3D{
		InC: inC, OutC: outC, K: k,
		weight: newParam("conv3d.w", outC, inC, k, k, k),
		bias:   newParam("conv3d.b", outC),
	}
	heInit(rng, c.weight.W, inC*k*k*k)
	return c, nil
}

// Name implements Layer.
func (c *Conv3D) Name() string { return fmt.Sprintf("conv3d(%d->%d,k=%d)", c.InC, c.OutC, c.K) }

// Params implements Layer.
func (c *Conv3D) Params() []*Param { return []*Param{c.weight, c.bias} }

// Forward implements Layer. x is (InC, D, H, W); output is (OutC, D, H, W).
// It runs Infer (see forwardInfer), so the two are bit-identical by
// construction.
func (c *Conv3D) Forward(x *tensor.Tensor) (*tensor.Tensor, error) {
	if x.Rank() != 4 || x.Dim(0) != c.InC {
		return nil, fmt.Errorf("nn: conv3d wants (%d,D,H,W), got %v", c.InC, x.Shape())
	}
	c.lastIn = x
	return forwardInfer(c, x)
}

// Backward implements Layer.
func (c *Conv3D) Backward(gy *tensor.Tensor) (*tensor.Tensor, error) {
	x := c.lastIn
	if x == nil {
		return nil, fmt.Errorf("nn: conv3d backward before forward")
	}
	d, h, w := x.Dim(1), x.Dim(2), x.Dim(3)
	if !shapeEq(gy, c.OutC, d, h, w) {
		return nil, fmt.Errorf("nn: conv3d gradOut shape %v, want (%d,%d,%d,%d)", gy.Shape(), c.OutC, d, h, w)
	}
	p := c.K / 2
	vol := d * h * w
	xd := x.Data()
	gyd := gy.Data()
	wd := c.weight.W.Data()
	gwd := c.weight.G.Data()
	gbd := c.bias.G.Data()

	parallel.For(c.OutC, func(oc int) {
		gybase := oc * vol
		var gb float64
		for idx := gybase; idx < gybase+vol; idx++ {
			gb += float64(gyd[idx])
		}
		gbd[oc] += float32(gb)
		for ic := 0; ic < c.InC; ic++ {
			xbase := ic * vol
			wbase := (((oc*c.InC + ic) * c.K) * c.K) * c.K
			for kz := 0; kz < c.K; kz++ {
				z0, z1 := outRange(kz, d, p)
				for ki := 0; ki < c.K; ki++ {
					i0, i1 := outRange(ki, h, p)
					for kj := 0; kj < c.K; kj++ {
						j0, j1 := outRange(kj, w, p)
						var acc float64
						for z := z0; z < z1; z++ {
							xz := xbase + (z+kz-p)*h*w
							gyz := gybase + z*h*w
							for i := i0; i < i1; i++ {
								xrow := xz + (i+ki-p)*w + (kj - p)
								gyrow := gyz + i*w
								for j := j0; j < j1; j++ {
									acc += float64(float64(gyd[gyrow+j]) * float64(xd[xrow+j]))
								}
							}
						}
						gwd[wbase+kz*c.K*c.K+ki*c.K+kj] += float32(acc)
					}
				}
			}
		}
	})

	gx := tensor.New(c.InC, d, h, w)
	gxd := gx.Data()
	parallel.For(c.InC, func(ic int) {
		xbase := ic * vol
		for az := 0; az < d; az++ {
			for a := 0; a < h; a++ {
				for b := 0; b < w; b++ {
					var acc float64
					for oc := 0; oc < c.OutC; oc++ {
						gybase := oc * vol
						wbase := (((oc*c.InC + ic) * c.K) * c.K) * c.K
						for kz := 0; kz < c.K; kz++ {
							z := az - kz + p
							if z < 0 || z >= d {
								continue
							}
							for ki := 0; ki < c.K; ki++ {
								i := a - ki + p
								if i < 0 || i >= h {
									continue
								}
								for kj := 0; kj < c.K; kj++ {
									j := b - kj + p
									if j < 0 || j >= w {
										continue
									}
									acc += float64(float64(wd[wbase+kz*c.K*c.K+ki*c.K+kj]) * float64(gyd[gybase+z*h*w+i*w+j]))
								}
							}
						}
					}
					gxd[xbase+az*h*w+a*w+b] = float32(acc)
				}
			}
		}
	})
	return gx, nil
}
