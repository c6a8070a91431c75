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

// TestInferMatchesForward pins the inference contract: Infer, with its
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
			got, err := net.Infer(cloneAct(x), NewArena(), workers)
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
	if _, err := net.Infer(x, a, 1); err != nil {
		t.Fatal(err)
	}
	for _, k := range inferKeys {
		if &a.f64s[k][:1][0] != before[k] {
			t.Errorf("%s was reallocated during the pass", k)
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

func (p *exactProbe) Infer(x Act, _ string, a *Arena, _ int) (Act, error) {
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
		if _, err := net.Infer(cloneAct(x), NewArena(), 2); err != nil {
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
