package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// foldClasses are the input classes of foldData. Under foldData's
// weights (all positive, about 1e-20) and ±0 biases, each class drives a
// convolution's float64 sums to one edge of the folded store: NaN, ±Inf,
// exact −0 and +0 (a −0 bias plus −0 products stays −0), sums that are
// nonzero in float64 but round to ±0 in float32, float32 subnormals, and
// ordinary values of both signs.
var foldClasses = []func(rng *rand.Rand, neg bool) float32{
	func(*rand.Rand, bool) float32 { return float32(math.NaN()) },
	func(_ *rand.Rand, neg bool) float32 { return sign(float32(math.Inf(1)), neg) },
	func(_ *rand.Rand, neg bool) float32 { return sign(0, neg) },
	func(rng *rand.Rand, neg bool) float32 { return sign(float32(1e-30*(0.5+rng.Float64())), neg) },
	func(rng *rand.Rand, neg bool) float32 { return sign(float32(1e-20*(0.5+rng.Float64())), neg) },
	func(rng *rand.Rand, neg bool) float32 { return sign(float32(1e20*(0.5+rng.Float64())), neg) },
}

func sign(v float32, neg bool) float32 {
	if neg {
		return float32(math.Copysign(float64(v), -1))
	}
	return v
}

// foldData fills x with runs of 5 to 8 columns (the last axis) of one
// class and sign, cycling through every class and sign in turn. The runs
// differ between the two halves of dimension 1 but not along any other
// axis or between channels, so every class fills whole 3×3(×3)
// neighborhoods as well as vector bodies, tails and halos. It sets l's
// weights to positive values near 1e-20 and its biases to −0 and +0
// alternately.
func foldData(rng *rand.Rand, l Layer, x Act) {
	const bands = 2
	n1, w := x.Dim(1), x.Dim(x.Rank()-1)
	combo := make([]int, bands*w) // class*2 + sign per (band, column)
	for j, k := 0, 0; j < len(combo); k++ {
		run := min(5+rng.Intn(4), len(combo)-j)
		for e := j; e < j+run; e++ {
			combo[e] = k % (2 * len(foldClasses))
		}
		j += run
	}
	xd := x.Data
	plane := len(xd) / x.Dim(0) / n1
	for i := range xd {
		band := i / plane % n1 * bands / n1
		cs := combo[band*w+i%w]
		xd[i] = float64(foldClasses[cs/2](rng, cs%2 == 1))
	}
	ps := l.Params()
	for i := range ps[0].W.Data() {
		ps[0].W.Data()[i] = float32(1e-20 * (0.5 + rng.Float64()))
	}
	for i := range ps[1].W.Data() {
		ps[1].W.Data()[i] = sign(0, i%2 == 0)
	}
}

// TestFoldedReLUMatchesForward pins the folded store: a convolution
// followed by a ReLU, run through Sequential.Infer (which folds the ReLU
// into the convolution's store) and through the training Forward (which
// runs the convolution and then the ReLU layer), must equal an explicit
// float32 ReLU of the convolution's output on convDirect bit for bit, for
// 2D and 3D, 3×3 and 1×1 and depthwise convolutions, on every kernel
// tier, at one and three workers. foldData makes the
// convolution emit every edge of the clamp; the test checks that it did.
// Its −0 biases, and the Inf weight of the "Inf weight" cases, are the
// layers padSafe keeps off the padded driver.
func TestFoldedReLUMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	must := func(l Layer, err error) Layer {
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	cases := []struct {
		name  string
		conv  Layer
		shape []int
		inf   bool // one weight of output channel 0 is +Inf
	}{
		{"conv2d 3x3", must(NewConv(rng, 2, 3, 4, 3)), []int{3, 11, 53}, false},
		{"conv2d 1x1", must(NewConv(rng, 2, 3, 4, 1)), []int{3, 11, 53}, false},
		{"depthwise2d", must(NewDepthwise(rng, 2, 3, 3)), []int{3, 11, 53}, false},
		{"conv2d 3x3 Inf weight", must(NewConv(rng, 2, 3, 4, 3)), []int{3, 11, 53}, true},
		{"depthwise2d Inf weight", must(NewDepthwise(rng, 2, 3, 3)), []int{3, 11, 53}, true},
		{"conv3d 3x3", must(NewConv(rng, 3, 2, 3, 3)), []int{2, 5, 6, 53}, false},
		{"conv3d 1x1", must(NewConv(rng, 3, 2, 3, 1)), []int{2, 5, 6, 53}, false},
		{"depthwise3d", must(NewDepthwise(rng, 3, 2, 3)), []int{2, 5, 6, 53}, false},
		{"conv3d 3x3 Inf weight", must(NewConv(rng, 3, 2, 3, 3)), []int{2, 5, 6, 53}, true},
	}
	for _, tc := range cases {
		x := randAct(rng, tc.shape...)
		foldData(rng, tc.conv, x)
		if tc.inf {
			tc.conv.Params()[0].W.Data()[4] = float32(math.Inf(1))
		}
		net := NewSequential(tc.conv, NewReLU())
		pre := directConv(tc.conv, x)
		want := make([]float64, len(pre))
		for i, p := range pre {
			if v := float32(p); v > 0 {
				want[i] = float64(v)
			} // NaN, ±0 and negatives: +0
		}
		for _, tier := range kernelTiers {
			if !tier.ok {
				continue
			}
			withKernels(tier.z, tier.v2, func() {
				check := func(pass string, got []float64) {
					for i, v := range want {
						if math.Float64bits(got[i]) != math.Float64bits(v) {
							t.Fatalf("%s, %s kernels, %s: element %d = %v, want ReLU(%v) = %v",
								tc.name, tier.name, pass, i, got[i], pre[i], v)
						}
					}
				}
				y, err := net.Forward(cloneAct(x), NewArena())
				if err != nil {
					t.Fatal(err)
				}
				check("training Forward", y.Data)
				for _, workers := range []int{1, 3} {
					got, err := net.Infer(cloneAct(x), NewArena(), workers)
					if err != nil {
						t.Fatal(err)
					}
					check(fmt.Sprintf("Infer on %d workers", workers), got.Data)
				}
			})
		}
		requireFoldEdges(t, tc.name, pre)
	}
}

// directConv runs the convolution l (a *Conv or *Depthwise) of x on
// convDirect.
func directConv(l Layer, x Act) []float64 {
	var K int
	depthwise := false
	switch c := l.(type) {
	case *Conv:
		K = c.K
	case *Depthwise:
		K, depthwise = c.K, true
	}
	w, b := l.Params()[0].W.Data(), l.Params()[1].W.Data()
	shape := x.Shape()
	shape[0] = len(b)
	out := newAct(make([]float64, len(x.Data)/x.Dim(0)*len(b)), shape...)
	s := newConvShape(out, x, K, depthwise, false)
	convDirect(out.Data, x.Data, toF64(make([]float64, len(w)), w), b, s, 0, s.outC*s.D*s.H)
	return out.Data
}

// requireFoldEdges fails unless the pre-ReLU output holds every edge the
// folded clamp must handle.
func requireFoldEdges(t *testing.T, name string, pre []float64) {
	t.Helper()
	var nan, negZero, posZero, negSub, posSub, neg, pos int
	for _, w := range pre {
		v := float32(w)
		bits := math.Float32bits(v)
		abs := bits &^ (1 << 31)
		switch {
		case v != v:
			nan++
		case bits == 1<<31:
			negZero++
		case bits == 0:
			posZero++
		case abs < 1<<23 && v < 0:
			negSub++
		case abs < 1<<23:
			posSub++
		case v < 0:
			neg++
		default:
			pos++
		}
	}
	if nan == 0 || negZero == 0 || posZero == 0 || negSub == 0 || posSub == 0 || neg == 0 || pos == 0 {
		t.Fatalf("%s: pre-ReLU output lacks an edge case: NaN %d, -0 %d, +0 %d, -subnormal %d, +subnormal %d, negative %d, positive %d",
			name, nan, negZero, posZero, negSub, posSub, neg, pos)
	}
}
