package cfnn

import (
	"math"
	"testing"

	"repro/internal/chunk"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// benchFields returns three smooth synthetic anchors and a target of the
// given shape.
func benchFields(spatial []int) (anchors []*tensor.Tensor, target *tensor.Tensor) {
	mk := func(phase float64) *tensor.Tensor {
		t := tensor.New(spatial...)
		d := t.Data()
		plane := len(d) / spatial[0]
		for i := range d {
			z, r := float64(i/plane), float64(i%plane)
			d[i] = float32(math.Sin(0.05*r+phase) + 0.3*math.Cos(0.2*z+0.01*r*phase))
		}
		return t
	}
	return []*tensor.Tensor{mk(0.3), mk(1.1), mk(2.3)}, mk(0.7)
}

// benchInference trains a small-budget model at the given width on
// benchFields and times, per iteration, one PredictDiffsWith pass over
// each chunk of counts, on the anchors' chunk.Grid views, through one
// warmed arena on two workers, the way the chunked engine runs a field.
func benchInference(b *testing.B, features int, spatial, counts []int) {
	anchors, target := benchFields(spatial)
	m, err := New(Config{SpatialRank: len(spatial), NumAnchors: len(anchors), Features: features, Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := m.Train(anchors, target, TrainConfig{Epochs: 1, StepsPerEpoch: 2, Batch: 1}); err != nil {
		b.Fatal(err)
	}
	grid, err := chunk.FromCounts(spatial, counts)
	if err != nil {
		b.Fatal(err)
	}
	views := make([][]*tensor.Tensor, len(counts))
	for k := range views {
		if views[k], err = grid.Views(anchors, k); err != nil {
			b.Fatal(err)
		}
	}
	arena := nn.NewArena()
	pass := func() {
		for _, v := range views {
			if _, err := m.PredictDiffsWith(v, arena, 2); err != nil {
				b.Fatal(err)
			}
		}
	}
	pass()
	b.SetBytes(int64(anchors[0].Len() * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass()
	}
}

// benchTrain times a fresh model's Train at the default budget on
// benchFields, as the codec trains one dependent field.
func benchTrain(b *testing.B, features int, spatial []int) {
	anchors, target := benchFields(spatial)
	for i := 0; i < b.N; i++ {
		m, err := New(Config{SpatialRank: len(spatial), NumAnchors: len(anchors), Features: features, Seed: 5})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.Train(anchors, target, TrainConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredictDiffs2D is one CESM field of perfbench's pack workload:
// 160×320, width 20, three anchors, four 40-row chunks.
func BenchmarkPredictDiffs2D(b *testing.B) {
	benchInference(b, 20, []int{160, 320}, []int{40, 40, 40, 40})
}

// BenchmarkPredictDiffs3D is the Hurricane dependent of perfbench's read
// workloads: 24×64×64, width 14, three anchors, four 6-slab chunks.
func BenchmarkPredictDiffs3D(b *testing.B) {
	benchInference(b, 14, []int{24, 64, 64}, []int{6, 6, 6, 6})
}

// BenchmarkTrain2D trains the CESM-shaped model of BenchmarkPredictDiffs2D
// (160×320, width 20, three anchors) at the default budget.
func BenchmarkTrain2D(b *testing.B) { benchTrain(b, 20, []int{160, 320}) }

// BenchmarkTrain3D trains the Hurricane-shaped model of
// BenchmarkPredictDiffs3D (24×64×64, width 14, three anchors) at the
// default budget.
func BenchmarkTrain3D(b *testing.B) { benchTrain(b, 14, []int{24, 64, 64}) }
