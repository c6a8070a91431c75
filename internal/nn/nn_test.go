package nn

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// randAct returns an activation of float32-exact values uniform in
// [-1, 1).
func randAct(rng *rand.Rand, shape ...int) Act {
	vol := 1
	for _, d := range shape {
		vol *= d
	}
	x := newAct(make([]float64, vol), shape...)
	for i := range x.Data {
		x.Data[i] = float64(rng.Float32()*2 - 1)
	}
	return x
}

// cloneAct copies x into fresh memory.
func cloneAct(x Act) Act {
	return newAct(append([]float64(nil), x.Data...), x.Shape()...)
}

// gradTarget is what gradCheck differentiates: a layer, or a Sequential
// (whose first input gradient is not computed, so backward returns an
// empty Act).
type gradTarget struct {
	forward  func(x Act) (Act, error)
	backward func(gy Act) (Act, error)
	params   []*Param
}

// layerTarget drives one layer through its Forward and Backward, on a
// copy of the input (ReLU clamps its input in place).
func layerTarget(l Layer) gradTarget {
	a := NewArena()
	return gradTarget{
		forward: func(x Act) (Act, error) {
			in := a.actLike("test.x", x.Dim(0), x)
			copy(in.Data, x.Data)
			return l.Forward(in, "test.y", a)
		},
		backward: func(gy Act) (Act, error) { return l.Backward(gy, "test.gx", a) },
		params:   l.Params(),
	}
}

// seqTarget drives a Sequential through its Forward and Backward.
func seqTarget(s *Sequential) gradTarget {
	a := NewArena()
	return gradTarget{
		forward:  func(x Act) (Act, error) { return s.Forward(cloneAct(x), a) },
		backward: func(gy Act) (Act, error) { return Act{}, s.Backward(gy, a) },
		params:   s.Params(),
	}
}

// lossOf computes a deterministic scalar "loss" = sum(forward(x) .* mask).
func lossOf(t *testing.T, g gradTarget, x Act, mask []float64) float64 {
	t.Helper()
	y, err := g.forward(x)
	if err != nil {
		t.Fatal(err)
	}
	if len(y.Data) != len(mask) {
		t.Fatalf("mask length %d != output %v", len(mask), y.Shape())
	}
	var sum float64
	for i, v := range y.Data {
		sum += v * mask[i]
	}
	return sum
}

// gradCheck verifies analytic gradients (input, when the target computes
// it, and params) against central finite differences. Tolerances are
// loose because every layer rounds to float32.
func gradCheck(t *testing.T, g gradTarget, x Act, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	y, err := g.forward(x)
	if err != nil {
		t.Fatal(err)
	}
	mask := make([]float64, len(y.Data))
	for i := range mask {
		mask[i] = float64(rng.Float32()*2 - 1)
	}
	// Analytic pass.
	ZeroGrads(g.params)
	_ = lossOf(t, g, x, mask)
	gx, err := g.backward(newAct(append([]float64(nil), mask...), y.Shape()...))
	if err != nil {
		t.Fatal(err)
	}
	const eps = 1e-2
	check := func(name string, idx int, analytic float64, set func(float64), orig float64) {
		set(orig + eps)
		lp := lossOf(t, g, x, mask)
		set(orig - eps)
		lm := lossOf(t, g, x, mask)
		set(orig)
		numeric := (lp - lm) / (2 * eps)
		diff := math.Abs(numeric - analytic)
		scale := math.Max(1, math.Max(math.Abs(numeric), math.Abs(analytic)))
		if diff/scale > 0.05 {
			t.Fatalf("%s[%d]: analytic %v vs numeric %v", name, idx, analytic, numeric)
		}
	}
	// Spot-check a sample of input positions.
	if gx.Data != nil {
		gxd := append([]float64(nil), gx.Data...)
		for s := 0; s < 12; s++ {
			idx := rng.Intn(len(x.Data))
			check("dL/dx", idx, gxd[idx], func(v float64) { x.Data[idx] = v }, x.Data[idx])
		}
	}
	// And of each parameter tensor.
	for _, p := range g.params {
		w, gw := p.W.Data(), append([]float32(nil), p.G.Data()...)
		for s := 0; s < 8; s++ {
			idx := rng.Intn(len(w))
			check("dL/d"+p.Name, idx, float64(gw[idx]), func(v float64) { w[idx] = float32(v) }, float64(w[idx]))
		}
	}
}

// TestLayerGradients checks every layer's input and parameter gradients
// against finite differences: dense convolutions with 3×3 and 1×1
// kernels and depthwise convolutions in 2D and 3D, ReLU, and channel
// attention.
func TestLayerGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	must := func(l Layer, err error) Layer {
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	cases := []struct {
		name  string
		layer Layer
		shape []int
	}{
		{"conv2d_k3", must(NewConv(rng, 2, 2, 3, 3)), []int{2, 5, 6}},
		{"conv2d_k1", must(NewConv(rng, 2, 3, 2, 1)), []int{3, 4, 4}},
		{"conv3d_k3", must(NewConv(rng, 3, 2, 2, 3)), []int{2, 3, 4, 5}},
		{"conv3d_k1", must(NewConv(rng, 3, 3, 2, 1)), []int{3, 2, 3, 3}},
		{"depthwise2d", must(NewDepthwise(rng, 2, 3, 3)), []int{3, 5, 5}},
		{"depthwise3d", must(NewDepthwise(rng, 3, 2, 3)), []int{2, 3, 4, 4}},
		{"relu", NewReLU(), []int{2, 4, 4}},
		{"attention", must(NewChannelAttention(rng, 4, 2)), []int{4, 5, 5}},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			x := randAct(rng, tc.shape...)
			switch tc.layer.(type) {
			case *ReLU:
				// Keep values away from the kink for finite differences.
				for i, v := range x.Data {
					if v > -0.05 && v < 0.05 {
						x.Data[i] = 0.3
					}
				}
			case *ChannelAttention:
				// Max-pool argmax must be stable under the eps
				// perturbation: make each channel's max clearly unique.
				spatial := len(x.Data) / x.Dim(0)
				for c := 0; c < x.Dim(0); c++ {
					x.Data[c*spatial+(c*7)%spatial] = 2.5 + float64(float32(c)*0.1)
				}
			}
			gradCheck(t, layerTarget(tc.layer), x, int64(11+i))
		})
	}
}

func TestChannelAttention3DInput(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	l, err := NewChannelAttention(rng, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	x := randAct(rng, 3, 2, 4, 4)
	y, err := l.Forward(x, "y", NewArena())
	if err != nil {
		t.Fatal(err)
	}
	if y.shape != x.shape || y.rank != x.rank {
		t.Fatalf("attention output shape %v", y.Shape())
	}
	// Attention weights are in (0,1): output magnitude never exceeds input.
	for i, v := range y.Data {
		if math.Abs(v) > math.Abs(x.Data[i])+1e-6 {
			t.Fatal("attention amplified beyond sigmoid range")
		}
	}
}

func TestSequentialChainsAndParams(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	c1, _ := NewConv(rng, 2, 1, 2, 3)
	c2, _ := NewConv(rng, 2, 2, 1, 1)
	seq := NewSequential(c1, NewReLU(), c2)
	if got := len(seq.Params()); got != 4 {
		t.Fatalf("params = %d, want 4", got)
	}
	a := NewArena()
	x := randAct(rng, 1, 6, 6)
	y, err := seq.Forward(x, a)
	if err != nil {
		t.Fatal(err)
	}
	if y.Rank() != 3 || y.Dim(0) != 1 || y.Dim(1) != 6 || y.Dim(2) != 6 {
		t.Fatalf("output shape %v", y.Shape())
	}
	_, grad, err := MSELoss(y, newAct(make([]float64, 36), 1, 6, 6), a)
	if err != nil {
		t.Fatal(err)
	}
	ZeroGrads(seq.Params())
	if err := seq.Backward(grad, a); err != nil {
		t.Fatal(err)
	}
	for i, p := range seq.Params() {
		nonzero := false
		for _, v := range p.G.Data() {
			nonzero = nonzero || v != 0
		}
		if !nonzero {
			t.Fatalf("param %d (%s) got no gradient", i, p.Name)
		}
	}
}

func TestSequentialShapeErrorPropagates(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	c1, _ := NewConv(rng, 2, 2, 2, 3)
	seq := NewSequential(c1)
	if _, err := seq.Forward(randAct(rng, 3, 4, 4), NewArena()); err == nil {
		t.Fatal("expected channel mismatch error")
	}
	if _, err := seq.Forward(randAct(rng, 2, 2, 4, 4), NewArena()); err == nil {
		t.Fatal("expected rank mismatch error")
	}
}

func TestInvalidLayerConfigs(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	if _, err := NewConv(rng, 2, 0, 1, 3); err == nil {
		t.Fatal("conv2d inC=0")
	}
	if _, err := NewConv(rng, 2, 1, 1, 2); err == nil {
		t.Fatal("conv2d even kernel")
	}
	if _, err := NewConv(rng, 3, 1, 0, 3); err == nil {
		t.Fatal("conv3d outC=0")
	}
	if _, err := NewConv(rng, 4, 1, 1, 3); err == nil {
		t.Fatal("conv rank 4")
	}
	if _, err := NewDepthwise(rng, 2, 0, 3); err == nil {
		t.Fatal("dw2d c=0")
	}
	if _, err := NewDepthwise(rng, 3, 1, 4); err == nil {
		t.Fatal("dw3d even kernel")
	}
	if _, err := NewDepthwise(rng, 1, 1, 3); err == nil {
		t.Fatal("depthwise rank 1")
	}
	if _, err := NewChannelAttention(rng, 0, 2); err == nil {
		t.Fatal("attention c=0")
	}
}

func TestBackwardBeforeForwardErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	a := NewArena()
	g := randAct(rng, 1, 3, 3)
	c, _ := NewConv(rng, 2, 1, 1, 3)
	if _, err := c.Backward(g, "gx", a); err == nil {
		t.Fatal("conv2d")
	}
	d, _ := NewDepthwise(rng, 2, 1, 3)
	if _, err := d.Backward(g, "gx", a); err == nil {
		t.Fatal("dw2d")
	}
	if _, err := NewReLU().Backward(g, "gx", a); err == nil {
		t.Fatal("relu")
	}
	at, _ := NewChannelAttention(rng, 1, 1)
	if _, err := at.Backward(g, "gx", a); err == nil {
		t.Fatal("attention")
	}
	// A gradient of the wrong shape after a Forward errors too.
	if _, err := c.Forward(randAct(rng, 1, 3, 3), "y", a); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Backward(randAct(rng, 1, 3, 4), "gx", a); err == nil {
		t.Fatal("conv2d gradOut shape")
	}
}

func TestMSELossValueAndGrad(t *testing.T) {
	a := NewArena()
	pred := newAct([]float64{1, 2}, 2)
	target := newAct([]float64{0, 4}, 2)
	loss, grad, err := MSELoss(pred, target, a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(loss-2.5) > 1e-9 { // (1 + 4)/2
		t.Fatalf("loss = %v", loss)
	}
	if math.Abs(grad.Data[0]-1) > 1e-6 || math.Abs(grad.Data[1]+2) > 1e-6 {
		t.Fatalf("grad = %v", grad.Data)
	}
	if _, _, err := MSELoss(pred, newAct(make([]float64, 3), 3), a); err == nil {
		t.Fatal("expected shape error")
	}
}

// A 1×1 convolution over one pixel is a linear map; Adam must fit one.
func TestOptimizersFitLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	l, err := NewConv(rng, 2, 2, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	opt := NewAdam(0.05)
	a := NewArena()
	// Target: y = 3a - 2b + 1.
	var last float64
	for step := 0; step < 400; step++ {
		ZeroGrads(l.Params())
		u := float64(rng.Float32()*2 - 1)
		v := float64(rng.Float32()*2 - 1)
		x := newAct([]float64{u, v}, 2, 1, 1)
		want := newAct([]float64{float64(float32(3*u - 2*v + 1))}, 1, 1, 1)
		y, err := l.Forward(x, "y", a)
		if err != nil {
			t.Fatal(err)
		}
		loss, grad, err := MSELoss(y, want, a)
		if err != nil {
			t.Fatal(err)
		}
		last = loss
		if _, err := l.Backward(grad, "", a); err != nil {
			t.Fatal(err)
		}
		opt.Step(l.Params())
	}
	if last > 0.05 {
		t.Fatalf("final loss %v, want < 0.05", last)
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	c1, _ := NewConv(rng, 2, 2, 3, 3)
	att, _ := NewChannelAttention(rng, 3, 2)
	seq := NewSequential(c1, att)
	var buf bytes.Buffer
	if err := SaveParams(&buf, seq.Params()); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != ParamBytes(seq.Params()) {
		t.Fatalf("ParamBytes = %d, actual %d", ParamBytes(seq.Params()), buf.Len())
	}
	// Fresh model with same shapes, different weights.
	rng2 := rand.New(rand.NewSource(99))
	c1b, _ := NewConv(rng2, 2, 2, 3, 3)
	attb, _ := NewChannelAttention(rng2, 3, 2)
	seqb := NewSequential(c1b, attb)
	if err := LoadParams(bytes.NewReader(buf.Bytes()), seqb.Params()); err != nil {
		t.Fatal(err)
	}
	pa, pb := seq.Params(), seqb.Params()
	for i := range pa {
		for j := range pa[i].W.Data() {
			if pa[i].W.Data()[j] != pb[i].W.Data()[j] {
				t.Fatalf("param %d weight %d differs after load", i, j)
			}
		}
	}
}

func TestSerializationShapeMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	a, _ := NewConv(rng, 2, 4, 2, 1)
	var buf bytes.Buffer
	if err := SaveParams(&buf, a.Params()); err != nil {
		t.Fatal(err)
	}
	b, _ := NewConv(rng, 2, 3, 2, 1) // wrong input width
	if err := LoadParams(bytes.NewReader(buf.Bytes()), b.Params()); err == nil {
		t.Fatal("expected shape mismatch error")
	}
	c3, _ := NewConv(rng, 3, 4, 2, 1) // wrong rank
	if err := LoadParams(bytes.NewReader(buf.Bytes()), c3.Params()); err == nil {
		t.Fatal("expected rank mismatch error")
	}
	c, _ := NewConv(rng, 2, 1, 1, 3) // wrong param count
	if err := LoadParams(bytes.NewReader(buf.Bytes()), append(c.Params(), a.Params()...)); err == nil {
		t.Fatal("expected count mismatch error")
	}
	// Corrupt magic.
	bad := append([]byte("XXXX"), buf.Bytes()[4:]...)
	if err := LoadParams(bytes.NewReader(bad), a.Params()); err == nil {
		t.Fatal("expected magic error")
	}
	// Truncated.
	if err := LoadParams(bytes.NewReader(buf.Bytes()[:buf.Len()-3]), a.Params()); err == nil {
		t.Fatal("expected truncation error")
	}
}

func TestParamCountAndScaleGrads(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	c, _ := NewConv(rng, 2, 2, 3, 3)
	// weights 3*2*3*3=54 + bias 3 = 57.
	if n := ParamCount(c.Params()); n != 57 {
		t.Fatalf("param count = %d, want 57", n)
	}
	for _, p := range c.Params() {
		if p.G != nil {
			t.Fatalf("%s: gradient allocated before its first use", p.Name)
		}
	}
	ZeroGrads(c.Params())
	for _, p := range c.Params() {
		p.G.Fill(2)
	}
	ScaleGrads(c.Params(), 0.5)
	for _, p := range c.Params() {
		for _, v := range p.G.Data() {
			if v != 1 {
				t.Fatalf("scaled grad = %v", v)
			}
		}
	}
	ZeroGrads(c.Params())
	for _, p := range c.Params() {
		for _, v := range p.G.Data() {
			if v != 0 {
				t.Fatal("zero grads failed")
			}
		}
	}
}

// Lorenzo-as-CNN sanity: a fixed-weight 3x3 conv2d reproduces the Lorenzo
// stencil f(i,j) = x(i-1,j) + x(i,j-1) - x(i-1,j-1), which the paper notes
// is "a masked CNN with fixed parameters".
func TestConv2DEncodesLorenzoStencil(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	l, err := NewConv(rng, 2, 1, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	wd := l.weight.W.Data() // (1,1,3,3), taps at offsets (ki-1, kj-1)
	for i := range wd {
		wd[i] = 0
	}
	// ki,kj indices: (0,1)=up, (1,0)=left, (0,0)=up-left.
	wd[0*3+1] = 1
	wd[1*3+0] = 1
	wd[0*3+0] = -1
	l.bias.W.Data()[0] = 0
	x := randAct(rng, 1, 6, 6)
	y, err := l.Forward(x, "y", NewArena())
	if err != nil {
		t.Fatal(err)
	}
	at := func(d []float64, i, j int) float64 { return d[i*6+j] }
	for i := 1; i < 6; i++ {
		for j := 1; j < 6; j++ {
			want := at(x.Data, i-1, j) + at(x.Data, i, j-1) - at(x.Data, i-1, j-1)
			if math.Abs(at(y.Data, i, j)-want) > 1e-5 {
				t.Fatalf("Lorenzo stencil mismatch at (%d,%d)", i, j)
			}
		}
	}
}
