package nn

import (
	"fmt"
	"math/rand"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

// Conv2D is a stride-1, zero-padded ("same") 2D convolution over (C, H, W)
// feature maps. Kernel size must be odd.
type Conv2D struct {
	InC, OutC, K int
	weight       *Param // (OutC, InC, K, K)
	bias         *Param // (OutC)
	lastIn       *tensor.Tensor
}

// NewConv2D creates a He-initialized 2D convolution.
func NewConv2D(rng *rand.Rand, inC, outC, k int) (*Conv2D, error) {
	if inC < 1 || outC < 1 || k < 1 || k%2 == 0 {
		return nil, fmt.Errorf("nn: conv2d invalid config inC=%d outC=%d k=%d (k must be odd)", inC, outC, k)
	}
	c := &Conv2D{
		InC: inC, OutC: outC, K: k,
		weight: newParam("conv2d.w", outC, inC, k, k),
		bias:   newParam("conv2d.b", outC),
	}
	heInit(rng, c.weight.W, inC*k*k)
	return c, nil
}

// Name implements Layer.
func (c *Conv2D) Name() string { return fmt.Sprintf("conv2d(%d->%d,k=%d)", c.InC, c.OutC, c.K) }

// Params implements Layer.
func (c *Conv2D) Params() []*Param { return []*Param{c.weight, c.bias} }

// Forward implements Layer. x is (InC, H, W); output is (OutC, H, W).
// It runs Infer (see forwardInfer), so the two are bit-identical by
// construction.
func (c *Conv2D) Forward(x *tensor.Tensor) (*tensor.Tensor, error) {
	if x.Rank() != 3 || x.Dim(0) != c.InC {
		return nil, fmt.Errorf("nn: conv2d wants (%d,H,W), got %v", c.InC, x.Shape())
	}
	c.lastIn = x
	return forwardInfer(c, x)
}

// Backward implements Layer.
func (c *Conv2D) Backward(gy *tensor.Tensor) (*tensor.Tensor, error) {
	x := c.lastIn
	if x == nil {
		return nil, fmt.Errorf("nn: conv2d backward before forward")
	}
	h, w := x.Dim(1), x.Dim(2)
	if !shapeEq(gy, c.OutC, h, w) {
		return nil, fmt.Errorf("nn: conv2d gradOut shape %v, want (%d,%d,%d)", gy.Shape(), c.OutC, h, w)
	}
	p := c.K / 2
	xd := x.Data()
	gyd := gy.Data()
	wd := c.weight.W.Data()
	gwd := c.weight.G.Data()
	gbd := c.bias.G.Data()

	// Parameter gradients: independent per output channel.
	parallel.For(c.OutC, func(oc int) {
		gybase := oc * h * w
		var gb float64
		for idx := gybase; idx < gybase+h*w; idx++ {
			gb += float64(gyd[idx])
		}
		gbd[oc] += float32(gb)
		for ic := 0; ic < c.InC; ic++ {
			xbase := ic * h * w
			wbase := ((oc*c.InC + ic) * c.K) * c.K
			for ki := 0; ki < c.K; ki++ {
				for kj := 0; kj < c.K; kj++ {
					var acc float64
					i0, i1 := outRange(ki, h, p)
					for i := i0; i < i1; i++ {
						j0, j1 := outRange(kj, w, p)
						xrow := xbase + (i+ki-p)*w + (kj - p)
						gyrow := gybase + i*w
						for j := j0; j < j1; j++ {
							acc += float64(float64(gyd[gyrow+j]) * float64(xd[xrow+j]))
						}
					}
					gwd[wbase+ki*c.K+kj] += float32(acc)
				}
			}
		}
	})

	// Input gradient: gather form, independent per input channel.
	gx := tensor.New(c.InC, h, w)
	gxd := gx.Data()
	parallel.For(c.InC, func(ic int) {
		xbase := ic * h * w
		for a := 0; a < h; a++ {
			for b := 0; b < w; b++ {
				var acc float64
				for oc := 0; oc < c.OutC; oc++ {
					gybase := oc * h * w
					wbase := ((oc*c.InC + ic) * c.K) * c.K
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
							acc += float64(float64(wd[wbase+ki*c.K+kj]) * float64(gyd[gybase+i*w+j]))
						}
					}
				}
				gxd[xbase+a*w+b] = float32(acc)
			}
		}
	})
	return gx, nil
}

// kernelRange returns the [k0,k1) kernel index range whose taps stay inside
// [0,n) for output position i with padding p.
func kernelRange(i, n, k, p int) (int, int) {
	k0 := 0
	if i-p < 0 {
		k0 = p - i
	}
	k1 := k
	if i+k-1-p >= n {
		k1 = n - i + p
	}
	return k0, k1
}

// outRange returns the [i0,i1) output positions for which tap ki reads a
// valid input row (i+ki-p in [0,n)).
func outRange(ki, n, p int) (int, int) {
	i0 := p - ki
	if i0 < 0 {
		i0 = 0
	}
	i1 := n + p - ki
	if i1 > n {
		i1 = n
	}
	return i0, i1
}
