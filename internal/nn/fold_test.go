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
// float32 ReLU of the convolution's output bit for bit, for 2D and 3D,
// 3×3 and 1×1 and depthwise convolutions, segmented and not, on every
// kernel tier, at one and three workers. foldData makes the convolution
// emit every edge of the clamp; the test checks that it did.
func TestFoldedReLUMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	must := func(l Layer, err error) Layer {
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	cases := []struct {
		name   string
		conv   Layer
		shape  []int
		counts []int
	}{
		{"conv2d 3x3", must(NewConv(rng, 2, 3, 4, 3)), []int{3, 11, 53}, nil},
		{"conv2d 3x3 segmented", must(NewConv(rng, 2, 3, 4, 3)), []int{3, 11, 53}, []int{5, 6}},
		{"conv2d 1x1", must(NewConv(rng, 2, 3, 4, 1)), []int{3, 11, 53}, nil},
		{"conv2d 1x1 segmented", must(NewConv(rng, 2, 3, 4, 1)), []int{3, 11, 53}, []int{5, 6}},
		{"depthwise2d segmented", must(NewDepthwise(rng, 2, 3, 3)), []int{3, 11, 53}, []int{5, 6}},
		{"conv3d 3x3", must(NewConv(rng, 3, 2, 3, 3)), []int{2, 5, 6, 53}, nil},
		{"conv3d 3x3 segmented", must(NewConv(rng, 3, 2, 3, 3)), []int{2, 5, 6, 53}, []int{2, 3}},
		{"conv3d 1x1", must(NewConv(rng, 3, 2, 3, 1)), []int{2, 5, 6, 53}, nil},
		{"conv3d 1x1 segmented", must(NewConv(rng, 3, 2, 3, 1)), []int{2, 5, 6, 53}, []int{2, 3}},
		{"depthwise3d segmented", must(NewDepthwise(rng, 3, 2, 3)), []int{2, 5, 6, 53}, []int{2, 3}},
	}
	for _, tc := range cases {
		x := randAct(rng, tc.shape...)
		foldData(rng, tc.conv, x)
		net := NewSequential(tc.conv, NewReLU())
		counts := tc.counts
		if counts == nil {
			counts = []int{tc.shape[1]}
		}
		var pre, want []float64
		for _, tier := range []struct {
			name  string
			z, v2 bool
			ok    bool
		}{{"go", false, false, true}, {"avx2", false, true, haveTap9}, {"avx512", true, true, haveTap9Z}} {
			if !tier.ok {
				continue
			}
			withKernels(tier.z, tier.v2, func() {
				pre = segmentedForward(t, NewSequential(tc.conv), x, counts)
				want = make([]float64, len(pre))
				for i, p := range pre {
					if v := float32(p); v > 0 {
						want[i] = float64(v)
					} // NaN, ±0 and negatives: +0
				}
				check := func(pass string, got []float64) {
					for i, v := range want {
						if math.Float64bits(got[i]) != math.Float64bits(v) {
							t.Fatalf("%s, %s kernels, %s: element %d = %v, want ReLU(%v) = %v",
								tc.name, tier.name, pass, i, got[i], pre[i], v)
						}
					}
				}
				check("training Forward", segmentedForward(t, net, x, counts))
				for _, workers := range []int{1, 3} {
					got, err := net.Infer(cloneAct(x), tc.counts, NewArena(), workers)
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
