package cfnn

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

func TestZeroBoundary2D(t *testing.T) {
	a := tensor.New(3, 4)
	a.Fill(7)
	zeroBoundary(a, 0)
	for j := 0; j < 4; j++ {
		if a.At2(0, j) != 0 {
			t.Fatal("axis-0 boundary not zeroed")
		}
	}
	for j := 0; j < 4; j++ {
		if a.At2(1, j) != 7 {
			t.Fatal("interior modified")
		}
	}
	b := tensor.New(3, 4)
	b.Fill(7)
	zeroBoundary(b, 1)
	for i := 0; i < 3; i++ {
		if b.At2(i, 0) != 0 {
			t.Fatal("axis-1 boundary not zeroed")
		}
		if b.At2(i, 1) != 7 {
			t.Fatal("interior modified")
		}
	}
}

func TestZeroBoundary3D(t *testing.T) {
	for axis := 0; axis < 3; axis++ {
		a := tensor.New(3, 4, 5)
		a.Fill(2)
		zeroBoundary(a, axis)
		for k := 0; k < 3; k++ {
			for i := 0; i < 4; i++ {
				for j := 0; j < 5; j++ {
					coord := [3]int{k, i, j}[axis]
					want := float32(2)
					if coord == 0 {
						want = 0
					}
					if a.At3(k, i, j) != want {
						t.Fatalf("axis %d at (%d,%d,%d) = %v, want %v", axis, k, i, j, a.At3(k, i, j), want)
					}
				}
			}
		}
	}
}

func TestDiffChannelsBoundaryZeroed(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := tensor.New(4, 6)
	for i := range f.Data() {
		f.Data()[i] = rng.Float32() * 10
	}
	ds, err := diffChannels(f)
	if err != nil {
		t.Fatal(err)
	}
	// Channel 0 (axis 0 diffs): row 0 must be zero; channel 1: col 0.
	for j := 0; j < 6; j++ {
		if ds[0].At2(0, j) != 0 {
			t.Fatal("axis-0 diff boundary nonzero")
		}
	}
	for i := 0; i < 4; i++ {
		if ds[1].At2(i, 0) != 0 {
			t.Fatal("axis-1 diff boundary nonzero")
		}
	}
	// Interior diffs unchanged from the raw backward difference.
	if ds[1].At2(2, 3) != f.At2(2, 3)-f.At2(2, 2) {
		t.Fatal("interior diff wrong")
	}
}

func TestNoAttentionVariant(t *testing.T) {
	withAttn, err := New(Config{SpatialRank: 2, NumAnchors: 1, Features: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	without, err := New(Config{SpatialRank: 2, NumAnchors: 1, Features: 8, NoAttention: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if without.ParamCount() >= withAttn.ParamCount() {
		t.Fatalf("no-attention params %d >= with-attention %d", without.ParamCount(), withAttn.ParamCount())
	}
	// The ablation variant must train and serialize round-trip.
	rng := rand.New(rand.NewSource(2))
	anchor := tensor.New(20, 20)
	for i := range anchor.Data() {
		anchor.Data()[i] = rng.Float32()
	}
	if _, err := without.Train([]*tensor.Tensor{anchor}, anchor.Clone(), TrainConfig{Epochs: 1, StepsPerEpoch: 2, Batch: 1}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := without.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !back.Cfg.NoAttention {
		t.Fatal("NoAttention flag lost in serialization")
	}
	if back.ParamCount() != without.ParamCount() {
		t.Fatal("param count changed after load")
	}
}

func TestFig5LossUnitsNormalized(t *testing.T) {
	// Training losses are reported in the paper's 0-300 normalized units:
	// for a well-conditioned problem the first-epoch loss should sit well
	// below NormScale^2 (=90000) and above 0.
	rng := rand.New(rand.NewSource(3))
	anchor := tensor.New(24, 24)
	for i := range anchor.Data() {
		anchor.Data()[i] = rng.Float32() * 4
	}
	m, err := New(Config{SpatialRank: 2, NumAnchors: 1, Features: 4, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	losses, err := m.Train([]*tensor.Tensor{anchor}, anchor.Clone(), TrainConfig{Epochs: 2, StepsPerEpoch: 4, Batch: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range losses {
		if l <= 0 || l >= NormScale*NormScale {
			t.Fatalf("loss %v outside (0, %v)", l, NormScale*NormScale)
		}
	}
}
