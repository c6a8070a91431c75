package nn

import (
	"fmt"
	"math/rand"

	"repro/internal/parallel"
)

// Conv is a stride-1, zero-padded ("same") convolution over (C, H, W) or
// (C, D, H, W) feature maps; its rank is that of its weight, (OutC, InC,
// K, K) or (OutC, InC, K, K, K). Kernel size must be odd.
type Conv struct {
	InC, OutC, K int
	weight       *Param
	bias         *Param // (OutC)
	in           Act    // training input, kept by Forward
}

// NewConv creates a He-initialized convolution of spatial rank 2 or 3.
func NewConv(rng *rand.Rand, rank, inC, outC, k int) (*Conv, error) {
	if (rank != 2 && rank != 3) || inC < 1 || outC < 1 || k < 1 || k%2 == 0 {
		return nil, fmt.Errorf("nn: conv invalid config rank=%d inC=%d outC=%d k=%d (rank 2 or 3, k odd)", rank, inC, outC, k)
	}
	c := &Conv{
		InC: inC, OutC: outC, K: k,
		weight: newParam("conv.w", []int{outC, inC, k, k, k}[:rank+2]...),
		bias:   newParam("conv.b", outC),
	}
	heInit(rng, c.weight.W, c.weight.W.Len()/outC)
	return c, nil
}

func (c *Conv) rank() int { return c.weight.W.Rank() - 2 }

// Name implements Layer.
func (c *Conv) Name() string {
	return fmt.Sprintf("conv%dd(%d->%d,k=%d)", c.rank(), c.InC, c.OutC, c.K)
}

// Params implements Layer.
func (c *Conv) Params() []*Param { return []*Param{c.weight, c.bias} }

// Infer implements Layer.
func (c *Conv) Infer(x Act, dstKey string, a *Arena, workers int) (Act, error) {
	return c.infer(x, dstKey, a, workers, false)
}

func (c *Conv) infer(x Act, dstKey string, a *Arena, workers int, relu bool) (Act, error) {
	if x.Rank() != c.rank()+1 || x.Dim(0) != c.InC {
		return Act{}, fmt.Errorf("nn: %s wants (%d, %d spatial dims), got %v", c.Name(), c.InC, c.rank(), x.Shape())
	}
	out := a.actLike(dstKey, c.OutC, x)
	wd := toF64(a.F64(convWeightKey, c.weight.W.Len()), c.weight.W.Data())
	runConv(out, x, wd, c.bias.W.Data(), c.K, false, relu, a, workers)
	return out, nil
}

// Forward implements Layer.
func (c *Conv) Forward(x Act, dstKey string, a *Arena) (Act, error) {
	y, err := c.infer(x, dstKey, a, parallel.Workers(), false)
	if err == nil {
		c.in = x
	}
	return y, err
}

// Backward implements Layer.
func (c *Conv) Backward(gy Act, gxKey string, a *Arena) (Act, error) {
	gx, err := convBackward(c.in, gy, c.weight, c.bias, c.K, false, gxKey, a)
	if err != nil {
		return Act{}, fmt.Errorf("nn: %s: %w", c.Name(), err)
	}
	return gx, nil
}

// convBackward is the Backward of a convolution whose training input was
// in: dense, or with depthwise one filter per channel. The input gradient
// of a same-padded K-tap convolution is the same-padded convolution of gy
// with every filter's taps reversed (flipped along every spatial axis)
// and the channel axes swapped, at zero bias, so it runs on runConv.
func convBackward(in, gy Act, weight, bias *Param, K int, depthwise bool, gxKey string, a *Arena) (Act, error) {
	outC, inC := bias.W.Len(), in.Dim(0)
	if err := checkGrad(in, gy, outC); err != nil {
		return Act{}, err
	}
	paramGrads(weight.grad(), bias.grad(), in, gy, K, depthwise)
	if gxKey == "" {
		return Act{}, nil
	}
	m := inC // filters per output channel
	if depthwise {
		m = 1
	}
	w := weight.W.Data()
	wt := a.F64(convWeightKey, len(w))
	taps := len(w) / (outC * m)
	for oc := 0; oc < outC; oc++ {
		for ic := 0; ic < m; ic++ {
			src := w[(oc*m+ic)*taps:]
			dst := wt[(ic*outC+oc)*taps:]
			for t := 0; t < taps; t++ {
				dst[taps-1-t] = float64(src[t])
			}
		}
	}
	gx := a.actLike(gxKey, inC, gy)
	runConv(gx, gy, wt, zeroBias(a, inC), K, depthwise, false, a, parallel.Workers())
	return gx, nil
}

// checkGrad validates a Backward call: in must be set by Forward, and gy
// must have outC channels over in's spatial shape.
func checkGrad(in, gy Act, outC int) error {
	if in.Data == nil {
		return fmt.Errorf("backward before forward")
	}
	ok := gy.Rank() == in.Rank() && gy.Dim(0) == outC
	for i := 1; ok && i < in.Rank(); i++ {
		ok = gy.Dim(i) == in.Dim(i)
	}
	if !ok {
		return fmt.Errorf("gradOut shape %v, want %d channels over input %v", gy.Shape(), outC, in.Shape())
	}
	return nil
}

// zeroBias returns n zero biases for a backward convolution.
func zeroBias(a *Arena, n int) []float32 {
	b := a.Tensor("conv.zb", n)
	b.Zero()
	return b.Data()
}

// Arena keys of the convolutions' scratch. Layers run strictly one at a
// time within a pass, so they share one scratch buffer (per worker,
// convPadded's padded and accumulator bands) and one widened-weights
// buffer.
const (
	convScratchKey = "conv.acc"
	convWeightKey  = "conv.w64"
)

// runConv computes the same-padded stride-1 convolution of x into out
// (both channel-major, one spatial shape) with widened weights wd and
// biases bd, on up to workers goroutines: a dense convolution (weights
// out.Dim(0) × x.Dim(0) × K^rank) or, with depthwise, one K^rank filter
// per channel. relu folds a ReLU into the store. A dense 1×1 layer runs
// on pointwiseConv, a 3×3 layer padSafe accepts on convPadded, and every
// other layer on convDirect.
func runConv(out, x Act, wd []float64, bd []float32, K int, depthwise, relu bool, a *Arena, workers int) {
	if K == 1 && !depthwise {
		pointwiseConv(out.Data, x.Data, wd, bd, x.Dim(0), out.Dim(0), len(x.Data)/x.Dim(0), relu, workers)
		return
	}
	s := newConvShape(out, x, K, depthwise, relu)
	if K == 3 && padSafe(wd, bd) {
		runPadded(out.Data, x.Data, wd, bd, s, a, workers)
		return
	}
	runDirect(out.Data, x.Data, wd, bd, s, workers)
}

// runPadded is runConv on convPadded: work items are (plane, row band),
// and each worker's scratch holds kd padded bands and its accumulator
// bands.
func runPadded(od, xd, wd []float64, bd []float32, s convShape, a *Arena, workers int) {
	accC := s.outC
	if s.depthwise {
		accC = 1
	}
	n := padScratchLen(s.kd, accC, s.H, s.W)
	items := s.D * ((s.H + padRows - 1) / padRows)
	eff := clampWorkers(workers, items)
	scratch := a.F64(convScratchKey, eff*n)
	if eff <= 1 {
		convPadded(od, xd, wd, bd, s, scratch, 0, items)
		return
	}
	dispatchScratch(eff, items, n, scratch, func(lo, hi int, buf []float64) {
		convPadded(od, xd, wd, bd, s, buf, lo, hi)
	})
}

// convShape is the geometry of one same-padded stride-1 convolution that
// runConv does not send to pointwiseConv. A 2D map is one plane (D = 1)
// with a one-tap depth kernel (kd = 1), as paramGrads treats it; a 3D map
// has kd = K.
type convShape struct {
	inC, outC, D, H, W, K, kd int
	depthwise, relu           bool
}

// newConvShape returns the geometry of convolving x into out.
func newConvShape(out, x Act, K int, depthwise, relu bool) convShape {
	s := convShape{inC: x.Dim(0), outC: out.Dim(0), D: 1, K: K, kd: 1, depthwise: depthwise, relu: relu}
	if x.Rank() == 4 {
		s.D, s.kd = x.Dim(1), K
	}
	s.H, s.W = x.Dim(x.Rank()-2), x.Dim(x.Rank()-1)
	return s
}

// inPer returns the input channels each output channel reads.
func (s *convShape) inPer() int {
	if s.depthwise {
		return 1
	}
	return s.inC
}

// runDirect is runConv on convDirect, on up to workers goroutines.
func runDirect(od, xd, wd []float64, bd []float32, s convShape, workers int) {
	items := s.outC * s.D * s.H
	if eff := clampWorkers(workers, items); eff <= 1 {
		convDirect(od, xd, wd, bd, s, 0, items)
	} else {
		parallel.ForRangeWith(eff, items, func(lo, hi int) {
			convDirect(od, xd, wd, bd, s, lo, hi)
		})
	}
}

// convDirect computes work items [lo, hi) of a convolution one element at
// a time: item t is row t%H of plane t/H%D of output channel t/(D·H). Each
// element is the per-element contract itself, its taps clipped to the
// input; the row's sums are then
// stored in place through storeRow, convPadded's store. It runs the layers
// the padded driver does not take (kernel sizes other than 1 and 3,
// depthwise 1×1, and layers padSafe rejects), and it is the reference the
// padded driver is tested against.
func convDirect(od, xd, wd []float64, bd []float32, s convShape, lo, hi int) {
	hw, K, W := s.H*s.W, s.K, s.W
	vol, p, pz := s.D*hw, K/2, s.kd/2
	inPer, taps := s.inPer(), s.kd*K*K
	for t := lo; t < hi; t++ {
		oc, z, i := t/(s.D*s.H), t/s.H%s.D, t%s.H
		kz0, kz1 := kernelRange(z, s.D, s.kd, pz)
		ki0, ki1 := kernelRange(i, s.H, K, p)
		ic0 := 0
		if s.depthwise {
			ic0 = oc
		}
		dst := od[oc*vol+z*hw+i*W : oc*vol+z*hw+(i+1)*W]
		for j := range dst {
			kj0, kj1 := kernelRange(j, W, K, p)
			a := float64(bd[oc])
			for ic := ic0; ic < ic0+inPer; ic++ {
				f := wd[(oc*inPer+ic-ic0)*taps:]
				for kz := kz0; kz < kz1; kz++ {
					for ki := ki0; ki < ki1; ki++ {
						wr := f[(kz*K+ki)*K:]
						xb := ic*vol + (z+kz-pz)*hw + (i+ki-p)*W + j - p
						for kj := kj0; kj < kj1; kj++ {
							a += float64(wr[kj] * xd[xb+kj])
						}
					}
				}
			}
			dst[j] = a
		}
		storeRow(dst, dst, s.relu)
	}
}

// paramGrads accumulates the weight and bias gradients of a same-padded
// stride-1 convolution from its input x and output gradient gy, for 2D
// and 3D alike: gb[oc] += Σ gy[oc], and tap t of the filter joining input
// channel ic to output channel oc gets Σ_p gy[oc][p]·x[ic][p+t−K/2] over
// the positions whose tap stays inside x. ic runs over every input
// channel, or is oc alone for a depthwise convolution. Each sum is a
// float64 in a fixed order rounded once, and the filters run in
// parallel, so the result does not depend on the worker count.
func paramGrads(gw, gb []float32, x, gy Act, K int, depthwise bool) {
	outC, inPer := gy.Dim(0), x.Dim(0)
	if depthwise {
		inPer = 1
	}
	d, kd := 1, 1 // a 2D map is one plane with a one-tap depth kernel
	if x.Rank() == 4 {
		d, kd = x.Dim(1), K
	}
	h, w := x.Dim(x.Rank()-2), x.Dim(x.Rank()-1)
	hw, p, pz := h*w, K/2, kd/2
	taps := kd * K * K
	for oc := range gb {
		var sb float64
		for _, v := range gy.Data[oc*d*hw : (oc+1)*d*hw] {
			sb += v
		}
		gb[oc] += float32(sb)
	}
	parallel.For(outC*inPer, func(f int) {
		oc, ic := f/inPer, f%inPer
		if depthwise {
			ic = oc
		}
		g := gy.Data[oc*d*hw : (oc+1)*d*hw]
		xc := x.Data[ic*d*hw : (ic+1)*d*hw]
		gwt := gw[f*taps : (f+1)*taps]
		for kz := 0; kz < kd; kz++ {
			z0, z1 := outRange(kz, d, pz)
			for ki := 0; ki < K; ki++ {
				i0, i1 := outRange(ki, h, p)
				t := (kz*K + ki) * K
				corrTaps(gwt[t:t+K], g, xc, z0, z1, i0, i1, (kz-pz)*hw+(ki-p)*w, hw, w)
			}
		}
	})
}

// corrTaps is one kernel row of paramGrads: it adds to gw[kj], for each
// of the row's K taps, Σ g[q]·x[q+off+kj−K/2] over output rows [i0, i1)
// of planes [z0, z1) and the columns whose tap stays inside the row, in
// ascending (plane, row, column) order. With K = 3 the three sums run
// side by side in one pass over each row, each in that same order.
func corrTaps(gw []float32, g, x []float64, z0, z1, i0, i1, off, hw, w int) {
	if len(gw) == 3 && w >= 2 {
		var a0, a1, a2 float64
		for z := z0; z < z1; z++ {
			for i := i0; i < i1; i++ {
				q := z*hw + i*w
				gr, xr := g[q:q+w], x[q+off:q+off+w]
				a1 += float64(gr[0] * xr[0])
				a2 += float64(gr[0] * xr[1])
				for j := 1; j < w-1; j++ {
					a0 += float64(gr[j] * xr[j-1])
					a1 += float64(gr[j] * xr[j])
					a2 += float64(gr[j] * xr[j+1])
				}
				a0 += float64(gr[w-1] * xr[w-2])
				a1 += float64(gr[w-1] * xr[w-1])
			}
		}
		gw[0] += float32(a0)
		gw[1] += float32(a1)
		gw[2] += float32(a2)
		return
	}
	p := len(gw) / 2
	for kj := range gw {
		j0, j1 := outRange(kj, w, p)
		var acc float64
		for z := z0; z < z1; z++ {
			for i := i0; i < i1; i++ {
				q := z*hw + i*w
				for j := j0; j < j1; j++ {
					acc += float64(g[q+j] * x[q+off+kj-p+j])
				}
			}
		}
		gw[kj] += float32(acc)
	}
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
