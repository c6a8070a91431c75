package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cfnn"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// Property: the hybrid pipeline honors the error bound for random
// correlated (anchor, target) pairs, bounds, and training seeds — the
// paper's core guarantee, end to end.
func TestHybridBoundProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("property test with training loops")
	}
	f := func(seed int64, ebExp uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		const n = 20
		anchor := tensor.New(n, n)
		target := tensor.New(n, n)
		phase := rng.Float64() * 3
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				base := math.Sin(float64(i)/3+phase) * math.Cos(float64(j)/4)
				anchor.Set2(float32(base*8), i, j)
				target.Set2(float32(base*5+rng.NormFloat64()*0.1), i, j)
			}
		}
		m, err := cfnn.New(cfnn.Config{SpatialRank: 2, NumAnchors: 1, Features: 4, Seed: seed})
		if err != nil {
			return false
		}
		if _, err := m.Train([]*tensor.Tensor{anchor}, target, cfnn.TrainConfig{
			Epochs: 1, StepsPerEpoch: 2, Batch: 1, Seed: seed + 1,
		}); err != nil {
			return false
		}
		eb := math.Pow(10, -float64(ebExp%3)-2) // 1e-2 .. 1e-4 relative
		res, err := compress(target, EncodeRequest{Bound: quant.RelBound(eb), Model: m, Anchors: []*tensor.Tensor{anchor}})
		if err != nil {
			return false
		}
		recon, err := Decompress(res.Blob, []*tensor.Tensor{anchor})
		if err != nil {
			return false
		}
		_, ok, err := VerifyBound(target, recon, res.Stats.AbsEB)
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// Property: compressed blobs are parseable and self-describing for random
// bounds: PeekStats always reflects the compression options.
func TestBlobHeaderProperty(t *testing.T) {
	f := func(seed int64, relExp uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		field := tensor.New(12, 12)
		for i := range field.Data() {
			field.Data()[i] = rng.Float32() * 10
		}
		rel := math.Pow(10, -float64(relExp%4)-1)
		res, err := compress(field, EncodeRequest{Bound: quant.RelBound(rel)})
		if err != nil {
			return false
		}
		hdr, err := PeekStats(res.Blob)
		if err != nil {
			return false
		}
		return hdr.BoundValue == rel && hdr.NumPoints() == 144 &&
			hdr.AbsEB == res.Stats.AbsEB
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
