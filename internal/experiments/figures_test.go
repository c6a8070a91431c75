package experiments

import (
	"context"
	"io"
	"math"
	"testing"

	crossfield "repro"
	"repro/internal/cfnn"
	"repro/internal/core"
)

// qualityFixture returns a small Hurricane Wf target, a CFNN trained on
// it from Uf, Vf and Pf, and those anchors decompressed at bound.
func qualityFixture(t *testing.T, bound crossfield.ErrorBound) (*crossfield.Field, *cfnn.Model, []*crossfield.Field) {
	t.Helper()
	ds, err := crossfield.GenerateHurricane(6, 32, 32, 16)
	if err != nil {
		t.Fatal(err)
	}
	target, err := ds.Field("Wf")
	if err != nil {
		t.Fatal(err)
	}
	anchors, err := ds.Fieldset("Uf", "Vf", "Pf")
	if err != nil {
		t.Fatal(err)
	}
	m, err := cfnn.New(cfnn.Config{SpatialRank: 3, NumAnchors: 3, Features: 6, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Train(fieldTensorsOf(anchors), target.Tensor(), cfnn.TrainConfig{
		Epochs: 4, StepsPerEpoch: 6, Batch: 1, PatchD: 4, PatchH: 12, PatchW: 12, Seed: 18,
	}); err != nil {
		t.Fatal(err)
	}
	anchorsDec, err := decompressedAnchors(anchors, bound)
	if err != nil {
		t.Fatal(err)
	}
	return target, m, anchorsDec
}

func TestPredictionQualityHybridBest(t *testing.T) {
	bound := crossfield.Rel(1e-3)
	target, m, anchorsDec := qualityFixture(t, bound)
	rep, err := predictionQuality(target, m, anchorsDec, bound)
	if err != nil {
		t.Fatal(err)
	}
	// The hybrid is a least-squares fusion: it must be at least as good as
	// (in practice better than) the best single predictor on the fit
	// sample; allow a small slack for out-of-sample points.
	best := math.Max(rep.psnrLorenzo, rep.psnrCross)
	if rep.psnrHybrid < best-0.5 {
		t.Fatalf("hybrid PSNR %v well below best single %v", rep.psnrHybrid, best)
	}
	if n := rep.fit.NumParams(); n != 5 {
		t.Fatalf("%d hybrid params (%v, bias %v), want 5", n, rep.fit.W, rep.fit.Bias)
	}
}

// TestFigVIWeightsMatchEncode: Figure 6 plots the codec's own predictor,
// so its hybrid weights are, bit for bit, the ones a monolithic encode of
// the same field, anchors and bound stores.
func TestFigVIWeightsMatchEncode(t *testing.T) {
	bound := crossfield.Rel(1e-3)
	target, m, anchorsDec := qualityFixture(t, bound)
	rep, err := predictionQuality(target, m, anchorsDec, bound)
	if err != nil {
		t.Fatal(err)
	}
	st, err := core.Encode(context.Background(), io.Discard, target.Tensor(), core.EncodeRequest{
		Bound: bound, Model: m, Anchors: fieldTensorsOf(anchorsDec),
	})
	if err != nil {
		t.Fatal(err)
	}
	got := append(append([]float64(nil), rep.fit.W...), rep.fit.Bias)
	if len(got) != len(st.HybridWeights) {
		t.Fatalf("figure weights %v, encode stores %v", got, st.HybridWeights)
	}
	for k := range got {
		if math.Float64bits(got[k]) != math.Float64bits(st.HybridWeights[k]) {
			t.Fatalf("figure weights %v, encode stores %v", got, st.HybridWeights)
		}
	}
}
