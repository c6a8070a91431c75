package nn

import (
	"fmt"
	"math/rand"

	"repro/internal/parallel"
)

// Depthwise applies one K-tap filter per channel (no cross-channel
// mixing) — the first half of a depthwise separable convolution
// (Chollet 2017), which CFNN uses to stay compact (Section III-D2). Its
// rank is that of its weight, (C, K, K) or (C, K, K, K).
type Depthwise struct {
	C, K   int
	weight *Param
	bias   *Param // (C)
	in     Act    // training input, kept by Forward
}

// NewDepthwise creates a He-initialized depthwise convolution of spatial
// rank 2 or 3.
func NewDepthwise(rng *rand.Rand, rank, c, k int) (*Depthwise, error) {
	if (rank != 2 && rank != 3) || c < 1 || k < 1 || k%2 == 0 {
		return nil, fmt.Errorf("nn: depthwise invalid config rank=%d c=%d k=%d", rank, c, k)
	}
	l := &Depthwise{
		C: c, K: k,
		weight: newParam("dw.w", []int{c, k, k, k}[:rank+1]...),
		bias:   newParam("dw.b", c),
	}
	heInit(rng, l.weight.W, l.weight.W.Len()/c)
	return l, nil
}

func (l *Depthwise) rank() int { return l.weight.W.Rank() - 1 }

// Name implements Layer.
func (l *Depthwise) Name() string { return fmt.Sprintf("depthwise%dd(c=%d,k=%d)", l.rank(), l.C, l.K) }

// Params implements Layer.
func (l *Depthwise) Params() []*Param { return []*Param{l.weight, l.bias} }

// Infer implements Layer.
func (l *Depthwise) Infer(x Act, dstKey string, a *Arena, workers int) (Act, error) {
	return l.infer(x, dstKey, a, workers, false)
}

func (l *Depthwise) infer(x Act, dstKey string, a *Arena, workers int, relu bool) (Act, error) {
	if x.Rank() != l.rank()+1 || x.Dim(0) != l.C {
		return Act{}, fmt.Errorf("nn: %s wants (%d, %d spatial dims), got %v", l.Name(), l.C, l.rank(), x.Shape())
	}
	out := a.actLike(dstKey, l.C, x)
	wd := toF64(a.F64(convWeightKey, l.weight.W.Len()), l.weight.W.Data())
	runConv(out, x, wd, l.bias.W.Data(), l.K, true, relu, a, workers)
	return out, nil
}

// Forward implements Layer.
func (l *Depthwise) Forward(x Act, dstKey string, a *Arena) (Act, error) {
	y, err := l.infer(x, dstKey, a, parallel.Workers(), false)
	if err == nil {
		l.in = x
	}
	return y, err
}

// Backward implements Layer.
func (l *Depthwise) Backward(gy Act, gxKey string, a *Arena) (Act, error) {
	gx, err := convBackward(l.in, gy, l.weight, l.bias, l.K, true, gxKey, a)
	if err != nil {
		return Act{}, fmt.Errorf("nn: %s: %w", l.Name(), err)
	}
	return gx, nil
}
