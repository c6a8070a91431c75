package nn

import (
	"math"
	"math/rand"
	"testing"
)

func TestAttentionReductionLargerThanChannels(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	// reduction 8 on 3 channels: hidden clamps to 1.
	a, err := NewChannelAttention(rng, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	if a.Hidden() != 1 {
		t.Fatalf("hidden = %d, want 1", a.Hidden())
	}
	x := randAct(rng, 3, 4, 4)
	y, err := a.Forward(x, "y", NewArena())
	if err != nil {
		t.Fatal(err)
	}
	if y.shape != x.shape || y.rank != x.rank {
		t.Fatal("shape changed")
	}
}

// TestSequentialCompositeGradCheck gradient-checks a full mini-CFNN stack
// end to end. Sequential.Backward does not compute the first layer's
// input gradient, so the check covers every parameter gradient, the
// first layer's included.
func TestSequentialCompositeGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	c1, err := NewConv(rng, 2, 2, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	dw, err := NewDepthwise(rng, 2, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	pw, err := NewConv(rng, 2, 4, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	attn, err := NewChannelAttention(rng, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := NewConv(rng, 2, 4, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	seq := NewSequential(c1, NewReLU(), dw, pw, NewReLU(), attn, c2)
	x := randAct(rng, 2, 5, 5)
	// Stabilize ReLU kinks and attention argmaxes for finite differences.
	for i, v := range x.Data {
		if v > -0.08 && v < 0.08 {
			x.Data[i] = 0.35
		}
	}
	gradCheck(t, seqTarget(seq), x, 25)
}

func TestAdamConvergesOnConv(t *testing.T) {
	// A 1->1 conv must learn to reproduce a fixed 3x3 stencil applied to
	// random inputs.
	rng := rand.New(rand.NewSource(26))
	teacher, err := NewConv(rng, 2, 1, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	student, err := NewConv(rand.New(rand.NewSource(27)), 2, 1, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	opt := NewAdam(0.02)
	a := NewArena()
	var last float64
	for step := 0; step < 300; step++ {
		ZeroGrads(student.Params())
		x := randAct(rng, 1, 8, 8)
		want, err := teacher.Forward(x, "teacher", a)
		if err != nil {
			t.Fatal(err)
		}
		got, err := student.Forward(x, "student", a)
		if err != nil {
			t.Fatal(err)
		}
		loss, grad, err := MSELoss(got, want, a)
		if err != nil {
			t.Fatal(err)
		}
		last = loss
		if _, err := student.Backward(grad, "", a); err != nil {
			t.Fatal(err)
		}
		opt.Step(student.Params())
	}
	if last > 0.01 {
		t.Fatalf("student did not converge: final loss %v", last)
	}
}

func TestAttentionWeightsBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	a, err := NewChannelAttention(rng, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	x := randAct(rng, 4, 6, 6)
	y, err := a.Forward(x, "y", NewArena())
	if err != nil {
		t.Fatal(err)
	}
	// Per-channel ratio y/x must be constant and in (0,1).
	for c := 0; c < 4; c++ {
		var ratio float64
		set := false
		for i := c * 36; i < (c+1)*36; i++ {
			xv := x.Data[i]
			if math.Abs(xv) < 1e-6 {
				continue
			}
			r := y.Data[i] / xv
			if !set {
				ratio = r
				set = true
			} else if math.Abs(r-ratio) > 1e-4 {
				t.Fatalf("channel %d ratio not constant: %v vs %v", c, r, ratio)
			}
		}
		if !set || ratio <= 0 || ratio >= 1 {
			t.Fatalf("channel %d attention ratio %v outside (0,1)", c, ratio)
		}
	}
}
