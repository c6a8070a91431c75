package nn

import (
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
