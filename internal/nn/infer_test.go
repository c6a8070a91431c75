package nn

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// randNormAct returns an activation of float32-exact normal values.
func randNormAct(rng *rand.Rand, shape ...int) Act {
	x := randAct(rng, shape...)
	for i := range x.Data {
		x.Data[i] = float64(float32(rng.NormFloat64()))
	}
	return x
}

// inferNet builds a CFNN-shaped stack for the given rank.
func inferNet(t *testing.T, rng *rand.Rand, rank, inC, f, outC int) *Sequential {
	t.Helper()
	c1, err := NewConv(rng, rank, inC, f, 3)
	if err != nil {
		t.Fatal(err)
	}
	dw, err := NewDepthwise(rng, rank, f, 3)
	if err != nil {
		t.Fatal(err)
	}
	pw, err := NewConv(rng, rank, f, f, 1)
	if err != nil {
		t.Fatal(err)
	}
	attn, err := NewChannelAttention(rng, f, 4)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := NewConv(rng, rank, f, outC, 3)
	if err != nil {
		t.Fatal(err)
	}
	return NewSequential(c1, NewReLU(), dw, pw, NewReLU(), attn, c2)
}

// TestInferMatchesForward pins the unsegmented contract: Infer, with its
// ping-pong buffers, folded ReLUs and in-place attention, must equal the
// training Forward bit for bit, so the model trains on the function it
// infers.
func TestInferMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, tc := range []struct {
		rank  int
		shape []int
	}{
		{3, []int{4, 5, 5}},
		{3, []int{1, 7, 9}}, // single plane: kernel clipped to one z tap
		{2, []int{11, 6}},
		{2, []int{2, 3}}, // smaller than the kernel
	} {
		net := inferNet(t, rng, tc.rank, 4, 6, 2)
		x := randNormAct(rng, append([]int{4}, tc.shape...)...)
		want, err := net.Forward(cloneAct(x), NewArena())
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 3} {
			got, err := net.Infer(cloneAct(x), nil, NewArena(), workers)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got.Shape(), want.Shape()) {
				t.Fatalf("rank %d: Infer shape %v != Forward %v", tc.rank, got.Shape(), want.Shape())
			}
			for i, v := range got.Data {
				if v != want.Data[i] {
					t.Fatalf("rank %d shape %v workers %d: Infer differs from Forward at %d: %v != %v",
						tc.rank, tc.shape, workers, i, v, want.Data[i])
				}
			}
		}
	}
}

// TestInferPingPongAllocatedOnce pins the sizing of a fresh arena's
// ping-pong buffers: InferInput reserves both at the widest activation
// of the pass (here the 14-channel hidden layers over a 9-channel input),
// so no layer of the pass reallocates either.
func TestInferPingPongAllocatedOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	net := inferNet(t, rng, 3, 9, 14, 3)
	a := NewArena()
	x := net.InferInput(a, 9, 6, 8, 8)
	before := make(map[string]*float64)
	for _, k := range inferKeys {
		buf, ok := a.f64s[k]
		if !ok {
			t.Fatalf("InferInput did not reserve %s", k)
		}
		before[k] = &buf[:1][0]
	}
	copy(x.Data, randNormAct(rng, x.Shape()...).Data)
	if _, err := net.Infer(x, nil, a, 1); err != nil {
		t.Fatal(err)
	}
	for _, k := range inferKeys {
		if &a.f64s[k][:1][0] != before[k] {
			t.Errorf("%s was reallocated during the pass", k)
		}
	}
}

// TestInferSegmentedMatchesPerSegmentForward is the halo-correctness
// property: segmented Infer over the full input must be bit-identical to
// running plain Forward on each segment's crop independently —
// convolution zero-padding and attention pooling both respect segment
// boundaries exactly.
func TestInferSegmentedMatchesPerSegmentForward(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	cases := []struct {
		rank   int
		shape  []int // spatial
		counts []int
	}{
		{3, []int{8, 6, 7}, []int{2, 3, 1, 2}},
		{3, []int{6, 5, 5}, []int{1, 1, 1, 1, 1, 1}}, // single-slab segments
		{3, []int{7, 6, 6}, []int{7}},                // one segment == unsegmented
		{2, []int{20, 9}, []int{5, 5, 10}},
		{2, []int{10, 7}, []int{1, 9}},
	}
	for _, tc := range cases {
		const inC = 3
		net := inferNet(t, rng, tc.rank, inC, 5, 2)
		x := randNormAct(rng, append([]int{inC}, tc.shape...)...)
		got, err := net.Infer(cloneAct(x), tc.counts, NewArena(), 2)
		if err != nil {
			t.Fatal(err)
		}
		want := segmentedForward(t, net, x, tc.counts)
		for i, v := range want {
			if got.Data[i] != v {
				t.Fatalf("rank %d counts %v: elem %d: segmented %v != per-segment Forward %v",
					tc.rank, tc.counts, i, got.Data[i], v)
			}
		}
	}
}

// segmentedForward is the reference of segmented inference: Forward on
// each segment's crop of x (split along dimension 1 by counts), laid out
// contiguously as one (C, spatial...) activation's data.
func segmentedForward(t *testing.T, net *Sequential, x Act, counts []int) []float64 {
	t.Helper()
	inC, n1 := x.Dim(0), x.Dim(1)
	plane := len(x.Data) / inC / n1
	var out []float64
	pos := 0
	for _, cnt := range counts {
		segShape := x.Shape()
		segShape[1] = cnt
		seg := newAct(make([]float64, inC*cnt*plane), segShape...)
		for c := 0; c < inC; c++ {
			src := x.Data[c*n1*plane+pos*plane:]
			copy(seg.Data[c*cnt*plane:(c+1)*cnt*plane], src[:cnt*plane])
		}
		y, err := net.Forward(seg, NewArena())
		if err != nil {
			t.Fatal(err)
		}
		outC := y.Dim(0)
		if out == nil {
			out = make([]float64, outC*n1*plane)
		}
		for c := 0; c < outC; c++ {
			copy(out[c*n1*plane+pos*plane:], y.Data[c*cnt*plane:(c+1)*cnt*plane])
		}
		pos += cnt
	}
	return out
}

// TestInferSegmentErrors pins the failure modes: malformed partitions
// must error rather than silently break halos.
func TestInferSegmentErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	net := inferNet(t, rng, 2, 2, 4, 1)
	x := randNormAct(rng, 2, 8, 6)
	for _, counts := range [][]int{{3, 3}, {0, 8}, {-1, 9}, {5, 5}} {
		if _, err := net.Infer(cloneAct(x), counts, NewArena(), 1); err == nil {
			t.Fatalf("counts %v: expected partition error", counts)
		}
	}
}

// exactProbe is a pass-through test layer: wherever it sits in a
// Sequential, it checks that the activation (or, in Backward, the
// gradient) reaching it and the arena's widened-weight buffer, which then
// holds the weights of the last convolution that ran, are float32-exact.
type exactProbe struct {
	t     *testing.T
	where string
	calls int
}

func (p *exactProbe) check(pass string, x Act, a *Arena) {
	p.t.Helper()
	requireFloat32Exact(p.t, pass+" at "+p.where, x.Data)
	requireFloat32Exact(p.t, pass+" widened weights at "+p.where, a.f64s[convWeightKey])
	p.calls++
}

func (p *exactProbe) Infer(x Act, _ string, _, _ []int, a *Arena, _ int) (Act, error) {
	p.check("Infer", x, a)
	return x, nil
}

func (p *exactProbe) Forward(x Act, _ string, a *Arena) (Act, error) {
	p.check("Forward", x, a)
	return x, nil
}

func (p *exactProbe) Backward(gy Act, _ string, a *Arena) (Act, error) {
	p.check("Backward", gy, a)
	return gy, nil
}

func (p *exactProbe) Params() []*Param { return nil }
func (p *exactProbe) Name() string     { return "probe(" + p.where + ")" }

func requireFloat32Exact(t *testing.T, what string, d []float64) {
	t.Helper()
	for i, v := range d {
		if math.Float64bits(float64(float32(v))) != math.Float64bits(v) {
			t.Fatalf("%s: element %d = %v is not float32-exact", what, i, v)
		}
	}
}

// TestActsAreFloat32Exact pins the premise that lets the SIMD kernels
// fuse each multiply-add without moving a bit: every operand they read is
// float32-exact, so every product is exact in float64. Probes between the
// layers of a CFNN-shaped stack check every activation of a 2D and a 3D
// Infer pass, and every activation and gradient of two training steps
// (Forward, MSE loss, Backward, Adam), together with the widened weights
// of each convolution, forward and flipped for the input gradient. The 3D
// stack's six channels run the padded driver in output triples on the
// AVX-512 tier.
func TestActsAreFloat32Exact(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, tc := range []struct {
		rank  int
		shape []int
	}{{2, []int{4, 12, 13}}, {3, []int{4, 5, 9, 11}}} {
		base := inferNet(t, rng, tc.rank, 4, 6, 2)
		var layers []Layer
		var probes []*exactProbe
		probe := func(where string) {
			p := &exactProbe{t: t, where: fmt.Sprintf("rank %d %s", tc.rank, where)}
			probes = append(probes, p)
			layers = append(layers, p)
		}
		probe("input")
		for i, l := range base.Layers {
			layers = append(layers, l)
			if i+1 < len(base.Layers) {
				if _, relu := base.Layers[i+1].(*ReLU); relu {
					continue // keep the ReLU folded into its convolution
				}
			}
			probe("after " + l.Name())
		}
		net := NewSequential(layers...)
		x := randNormAct(rng, tc.shape...)
		if _, err := net.Infer(cloneAct(x), nil, NewArena(), 2); err != nil {
			t.Fatal(err)
		}
		target := randNormAct(rng, append([]int{2}, tc.shape[1:]...)...)
		opt := NewAdam(1e-2)
		a := NewArena()
		for step := 0; step < 2; step++ {
			ZeroGrads(net.Params())
			y, err := net.Forward(cloneAct(x), a)
			if err != nil {
				t.Fatal(err)
			}
			_, gy, err := MSELoss(y, target, a)
			if err != nil {
				t.Fatal(err)
			}
			if err := net.Backward(gy, a); err != nil {
				t.Fatal(err)
			}
			opt.Step(net.Params())
		}
		for _, p := range probes {
			if p.calls != 5 { // one Infer, two Forward, two Backward
				t.Fatalf("%s ran %d times, want 5", p.Name(), p.calls)
			}
		}
	}
}
