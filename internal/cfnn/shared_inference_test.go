package cfnn

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

func trainedTestModel(t *testing.T, rank int, spatial []int, numAnchors int) (*Model, []*tensor.Tensor) {
	t.Helper()
	rng := rand.New(rand.NewSource(21))
	mk := func() *tensor.Tensor {
		x := tensor.New(spatial...)
		d := x.Data()
		for i := range d {
			d[i] = float32(rng.NormFloat64() * 3)
		}
		return x
	}
	anchors := make([]*tensor.Tensor, numAnchors)
	for i := range anchors {
		anchors[i] = mk()
	}
	m, err := New(Config{SpatialRank: rank, NumAnchors: numAnchors, Features: 5, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Train(anchors, mk(), TrainConfig{Epochs: 1, StepsPerEpoch: 2, Batch: 1}); err != nil {
		t.Fatal(err)
	}
	return m, anchors
}

// TestPredictDiffsWithConcurrentArenas pins the read-only-model contract:
// one model may run inference from many goroutines as long as each brings
// its own arena, with every result identical to one serial pass.
func TestPredictDiffsWithConcurrentArenas(t *testing.T) {
	m, anchors := trainedTestModel(t, 3, []int{6, 8, 8}, 2)
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	diffs := make([][]*tensor.Tensor, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			diffs[g], errs[g] = m.PredictDiffsWith(anchors, nn.NewArena(), 1)
		}(g)
	}
	wg.Wait()
	ref, err := m.PredictDiffsWith(anchors, nn.NewArena(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		for axis := range ref {
			for i, v := range ref[axis].Data() {
				if diffs[g][axis].Data()[i] != v {
					t.Fatalf("goroutine %d axis %d: concurrent inference differs at %d", g, axis, i)
				}
			}
		}
	}
}
