package nn

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/tensor"
)

func randTensor(rng *rand.Rand, shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
	d := t.Data()
	for i := range d {
		d[i] = float32(rng.NormFloat64())
	}
	return t
}

// inferNet builds a CFNN-shaped stack for the given rank.
func inferNet(t *testing.T, rng *rand.Rand, rank, inC, f, outC int) *Sequential {
	t.Helper()
	var layers []Layer
	if rank == 3 {
		c1, err := NewConv3D(rng, inC, f, 3)
		if err != nil {
			t.Fatal(err)
		}
		dw, err := NewDepthwiseConv3D(rng, f, 3)
		if err != nil {
			t.Fatal(err)
		}
		pw, err := NewConv3D(rng, f, f, 1)
		if err != nil {
			t.Fatal(err)
		}
		attn, err := NewChannelAttention(rng, f, 4)
		if err != nil {
			t.Fatal(err)
		}
		c2, err := NewConv3D(rng, f, outC, 3)
		if err != nil {
			t.Fatal(err)
		}
		layers = []Layer{c1, NewReLU(), dw, pw, NewReLU(), attn, c2}
	} else {
		c1, err := NewConv2D(rng, inC, f, 3)
		if err != nil {
			t.Fatal(err)
		}
		dw, err := NewDepthwiseConv2D(rng, f, 3)
		if err != nil {
			t.Fatal(err)
		}
		pw, err := NewConv2D(rng, f, f, 1)
		if err != nil {
			t.Fatal(err)
		}
		attn, err := NewChannelAttention(rng, f, 4)
		if err != nil {
			t.Fatal(err)
		}
		c2, err := NewConv2D(rng, f, outC, 3)
		if err != nil {
			t.Fatal(err)
		}
		layers = []Layer{c1, NewReLU(), dw, pw, NewReLU(), attn, c2}
	}
	return NewSequential(layers...)
}

// TestInferMatchesForward pins the unsegmented contract: Infer must equal
// Forward bit for bit (the compressed format embeds the predictions, so
// this is a correctness property, not a tolerance check).
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
		x := randTensor(rng, append([]int{4}, tc.shape...)...)
		want, err := net.Forward(x.Clone())
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 3} {
			got, err := net.Infer(actOf(x), nil, NewArena(), workers)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got.Shape(), want.Shape()) {
				t.Fatalf("rank %d: Infer shape %v != Forward %v", tc.rank, got.Shape(), want.Shape())
			}
			for i, v := range got.Data {
				if v != float64(want.Data()[i]) {
					t.Fatalf("rank %d shape %v workers %d: Infer differs from Forward at %d: %v != %v",
						tc.rank, tc.shape, workers, i, v, want.Data()[i])
				}
			}
		}
	}
}

// TestInferSegmentedMatchesPerSegmentForward is the halo-correctness
// property: segmented Infer over the full input must be bit-identical to
// running plain Forward on each segment's sub-tensor independently —
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
		x := randTensor(rng, append([]int{inC}, tc.shape...)...)
		got, err := net.Infer(actOf(x), tc.counts, NewArena(), 2)
		if err != nil {
			t.Fatal(err)
		}
		want := segmentedForward(t, net, x, tc.counts)
		for i, v := range want.Data() {
			if got.Data[i] != float64(v) {
				t.Fatalf("rank %d counts %v: elem %d: segmented %v != per-segment Forward %v",
					tc.rank, tc.counts, i, got.Data[i], v)
			}
		}
	}
}

// segmentedForward is the reference of segmented inference: Forward on
// each segment's crop of x (split along dimension 1 by counts), laid out
// contiguously as one (C, spatial...) tensor.
func segmentedForward(t *testing.T, net Layer, x *tensor.Tensor, counts []int) *tensor.Tensor {
	t.Helper()
	inC, n1 := x.Dim(0), x.Dim(1)
	plane := x.Len() / inC / n1
	var out *tensor.Tensor
	pos := 0
	for _, cnt := range counts {
		segShape := slices.Clone(x.Shape())
		segShape[1] = cnt
		seg := tensor.New(segShape...)
		for c := 0; c < inC; c++ {
			src := x.Data()[c*n1*plane+pos*plane:]
			copy(seg.Data()[c*cnt*plane:(c+1)*cnt*plane], src[:cnt*plane])
		}
		y, err := net.Forward(seg)
		if err != nil {
			t.Fatal(err)
		}
		if out == nil {
			outShape := slices.Clone(y.Shape())
			outShape[1] = n1
			out = tensor.New(outShape...)
		}
		outC := y.Dim(0)
		outPlane := y.Len() / outC / cnt
		for c := 0; c < outC; c++ {
			copy(out.Data()[c*n1*outPlane+pos*outPlane:], y.Data()[c*cnt*outPlane:(c+1)*cnt*outPlane])
		}
		pos += cnt
	}
	return out
}

// TestInferSegmentErrors pins the failure modes: malformed partitions and
// segmented inference over a layer without an Infer fast path must error
// rather than silently break halos.
func TestInferSegmentErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	net := inferNet(t, rng, 2, 2, 4, 1)
	x := randTensor(rng, 2, 8, 6)
	for _, counts := range [][]int{{3, 3}, {0, 8}, {-1, 9}, {5, 5}} {
		if _, err := net.Infer(actOf(x), counts, NewArena(), 1); err == nil {
			t.Fatalf("counts %v: expected partition error", counts)
		}
	}
	dense, err := NewDense(rng, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	nd := NewSequential(dense)
	if _, err := nd.Infer(actOf(randTensor(rng, 2, 2, 4)), []int{1, 1}, NewArena(), 1); err == nil {
		t.Fatal("expected segmented-inference error for a layer without InferLayer support")
	}
}
