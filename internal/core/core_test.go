package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cfnn"
	"repro/internal/chunk"
	"repro/internal/container"
	"repro/internal/lossless"
	"repro/internal/quant"
	"repro/internal/sim"
	"repro/internal/tensor"
)

// smoothField2D builds a smooth 2D test field.
func smoothField2D(ny, nx int, seed int64) *tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	f := tensor.New(ny, nx)
	for i := 0; i < ny; i++ {
		for j := 0; j < nx; j++ {
			v := 40*math.Sin(float64(i)/7) + 30*math.Cos(float64(j)/9) + rng.NormFloat64()*0.5
			f.Set2(float32(v), i, j)
		}
	}
	return f
}

func smoothField3D(nz, ny, nx int, seed int64) *tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	f := tensor.New(nz, ny, nx)
	for k := 0; k < nz; k++ {
		for i := 0; i < ny; i++ {
			for j := 0; j < nx; j++ {
				v := 20*math.Sin(float64(k)/3+float64(i)/8) + 15*math.Cos(float64(j)/6) + rng.NormFloat64()*0.3
				f.Set3(float32(v), k, i, j)
			}
		}
	}
	return f
}

func checkBound(t *testing.T, orig, recon *tensor.Tensor, eb float64) {
	t.Helper()
	maxErr, ok, err := VerifyBound(orig, recon, eb)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("error bound violated: max err %v > eb %v", maxErr, eb)
	}
}

func TestBaselineRoundTrip2D(t *testing.T) {
	f := smoothField2D(48, 56, 1)
	res, err := compress(f, EncodeRequest{Bound: quant.AbsBound(0.05)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Ratio <= 1 {
		t.Fatalf("ratio = %v, expected compression on smooth data", res.Stats.Ratio)
	}
	back, err := Decompress(res.Blob, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkBound(t, f, back, 0.05)
}

func TestBaselineRoundTrip3D(t *testing.T) {
	f := smoothField3D(8, 24, 24, 2)
	res, err := compress(f, EncodeRequest{Bound: quant.RelBound(1e-3)})
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decompress(res.Blob, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkBound(t, f, back, res.Stats.AbsEB)
}

func TestBaselineRoundTrip1D(t *testing.T) {
	f := tensor.New(512)
	for i := range f.Data() {
		f.Data()[i] = float32(math.Sin(float64(i) / 20))
	}
	res, err := compress(f, EncodeRequest{Bound: quant.AbsBound(1e-3)})
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decompress(res.Blob, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkBound(t, f, back, 1e-3)
}

func TestBaselineStatsConsistency(t *testing.T) {
	f := smoothField2D(32, 32, 3)
	res, err := compress(f, EncodeRequest{Bound: quant.AbsBound(0.01)})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.OriginalBytes != 32*32*4 {
		t.Fatalf("orig bytes = %d", st.OriginalBytes)
	}
	if st.CompressedBytes != len(res.Blob) {
		t.Fatalf("compressed bytes %d != blob %d", st.CompressedBytes, len(res.Blob))
	}
	if math.Abs(st.Ratio-float64(st.OriginalBytes)/float64(st.CompressedBytes)) > 1e-9 {
		t.Fatalf("ratio inconsistent")
	}
	if st.ModelBytes != 0 {
		t.Fatalf("baseline has model bytes %d", st.ModelBytes)
	}
	if st.Method != container.MethodBaseline {
		t.Fatalf("method = %v", st.Method)
	}
}

// trainTinyModel trains a small CFNN coupling anchor->target for tests.
func trainTinyModel(t *testing.T, anchors []*tensor.Tensor, target *tensor.Tensor) *cfnn.Model {
	t.Helper()
	m, err := cfnn.New(cfnn.Config{
		SpatialRank: target.Rank(), NumAnchors: len(anchors), Features: 5, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Train(anchors, target, cfnn.TrainConfig{
		Epochs: 4, StepsPerEpoch: 6, Batch: 1, PatchD: 4, PatchH: 12, PatchW: 12, Seed: 12,
	}); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestHybridRoundTrip2D(t *testing.T) {
	target := smoothField2D(40, 40, 4)
	anchor := target.Clone()
	anchor.Scale(0.8) // strongly correlated anchor
	anchors := []*tensor.Tensor{anchor}
	model := trainTinyModel(t, anchors, target)

	res, err := compress(target, EncodeRequest{Bound: quant.AbsBound(0.02), Model: model, Anchors: anchors, AnchorNames: []string{"A"}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ModelBytes == 0 {
		t.Fatal("hybrid blob must embed the model")
	}
	if len(res.Stats.HybridWeights) != 4 { // lorenzo + 2 axes + bias
		t.Fatalf("hybrid weights = %v", res.Stats.HybridWeights)
	}
	back, err := Decompress(res.Blob, anchors)
	if err != nil {
		t.Fatal(err)
	}
	checkBound(t, target, back, 0.02)
}

func TestHybridRoundTrip3D(t *testing.T) {
	target := smoothField3D(6, 20, 20, 5)
	anchor := target.Clone()
	anchor.AddScalar(3)
	anchors := []*tensor.Tensor{anchor}
	model := trainTinyModel(t, anchors, target)

	res, err := compress(target, EncodeRequest{Bound: quant.RelBound(1e-3), Model: model, Anchors: anchors})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats.HybridWeights) != 5 { // lorenzo + 3 axes + bias
		t.Fatalf("hybrid weights = %v", res.Stats.HybridWeights)
	}
	back, err := Decompress(res.Blob, anchors)
	if err != nil {
		t.Fatal(err)
	}
	checkBound(t, target, back, res.Stats.AbsEB)
}

func TestCrossOnlyRoundTrip(t *testing.T) {
	target := smoothField2D(32, 32, 6)
	anchor := target.Clone()
	anchors := []*tensor.Tensor{anchor}
	model := trainTinyModel(t, anchors, target)
	res, err := compressCrossOnly(target, EncodeRequest{Bound: quant.AbsBound(0.05), Model: model, Anchors: anchors})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Method != container.MethodCrossOnly {
		t.Fatalf("method = %v", res.Stats.Method)
	}
	if len(res.Stats.HybridWeights) != 3 { // 2 axes + bias, no lorenzo
		t.Fatalf("weights = %v", res.Stats.HybridWeights)
	}
	back, err := Decompress(res.Blob, anchors)
	if err != nil {
		t.Fatal(err)
	}
	checkBound(t, target, back, 0.05)
}

func TestHybridNeedsAnchorsAtDecompress(t *testing.T) {
	target := smoothField2D(32, 32, 7)
	anchors := []*tensor.Tensor{target.Clone()}
	model := trainTinyModel(t, anchors, target)
	res, err := compress(target, EncodeRequest{Bound: quant.AbsBound(0.05), Model: model, Anchors: anchors})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decompress(res.Blob, nil); !errors.Is(err, ErrNeedAnchors) {
		t.Fatalf("err = %v, want ErrNeedAnchors", err)
	}
}

func TestDecompressCorruptBlob(t *testing.T) {
	if _, err := Decompress([]byte("garbage"), nil); err == nil {
		t.Fatal("expected error")
	}
	f := smoothField2D(16, 16, 8)
	res, err := compress(f, EncodeRequest{Bound: quant.AbsBound(0.1)})
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), res.Blob...)
	// Flip bytes in the payload tail; must error, never panic or return
	// out-of-bound data silently... (Huffman may error or the container
	// may catch it; either is acceptable as long as it's an error OR the
	// bound check fails.)
	bad[len(bad)-1] ^= 0xFF
	back, err := Decompress(bad, nil)
	if err == nil {
		if _, ok, _ := VerifyBound(f, back, 0.1); ok {
			t.Log("corruption landed in padding bits; round-trip unaffected")
		}
	}
	// A flipped byte inside a CFC2 chunk payload is caught by the chunk
	// CRC on every whole-field route, the ReaderAt route included.
	cres, err := compress(f, EncodeRequest{Bound: quant.AbsBound(0.1), ChunkVoxels: 4 * 8})
	if err != nil {
		t.Fatal(err)
	}
	cbad := append([]byte(nil), cres.Blob...)
	cbad[len(cbad)-3] ^= 0x10
	n, err := ChunkCount(cbad)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decompress(cbad, nil); !errors.Is(err, chunk.ErrChecksum) {
		t.Errorf("Decompress of a flipped chunk byte: err = %v, want chunk.ErrChecksum", err)
	}
	for _, i := range []int{Whole, n - 1} {
		if _, _, _, err := decodeBlob(cbad, Request{Chunk: i, Level: LevelFull}); !errors.Is(err, chunk.ErrChecksum) {
			t.Errorf("chunk %d of a flipped chunk byte: err = %v, want chunk.ErrChecksum", i, err)
		}
	}
}

func TestCompressInvalidBound(t *testing.T) {
	f := smoothField2D(16, 16, 9)
	if _, err := compress(f, EncodeRequest{Bound: quant.AbsBound(0)}); err == nil {
		t.Fatal("expected invalid-bound error")
	}
}

func TestBaselineBeatsStoreOnSmoothData(t *testing.T) {
	f := smoothField2D(64, 64, 10)
	flate, err := compress(f, EncodeRequest{Bound: quant.RelBound(1e-3)})
	if err != nil {
		t.Fatal(err)
	}
	if flate.Stats.Ratio < 4 {
		t.Fatalf("smooth-field baseline CR = %v, want >= 4", flate.Stats.Ratio)
	}
}

// TestStoreBackendRoundTrip: the encoder always writes flate, but a
// payload whose lossless stage is the store backend still decodes. The
// test rewrites an encoded payload's entropy-coded stream as stored bytes.
func TestStoreBackendRoundTrip(t *testing.T) {
	f := smoothField2D(24, 24, 11)
	res, err := compress(f, EncodeRequest{Bound: quant.AbsBound(0.05)})
	if err != nil {
		t.Fatal(err)
	}
	b, err := container.Decode(res.Blob)
	if err != nil {
		t.Fatal(err)
	}
	if b.Payload, err = lossless.Default().Decompress(b.Payload, b.PayloadRaw); err != nil {
		t.Fatal(err)
	}
	b.BackendID = lossless.Store{}.ID()
	stored, err := container.Encode(b)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decompress(stored, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkBound(t, f, back, 0.05)
}

// The headline mechanism: with a strongly coupled anchor, hybrid
// compression should produce codes with lower entropy (better prediction)
// than the Lorenzo baseline on noisy-but-correlated data.
func TestHybridImprovesEntropyWithInformativeAnchor(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const ny, nx = 64, 64
	anchor := tensor.New(ny, nx)
	target := tensor.New(ny, nx)
	for i := 0; i < ny; i++ {
		for j := 0; j < nx; j++ {
			// Rough shared texture: hard for Lorenzo, easy cross-field.
			shared := 10 * math.Sin(float64(i)*0.9) * math.Cos(float64(j)*0.8)
			anchor.Set2(float32(shared), i, j)
			target.Set2(float32(2*shared+0.05*rng.NormFloat64()), i, j)
		}
	}
	anchors := []*tensor.Tensor{anchor}
	m, err := cfnn.New(cfnn.Config{SpatialRank: 2, NumAnchors: 1, Features: 8, Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Train(anchors, target, cfnn.TrainConfig{
		Epochs: 12, StepsPerEpoch: 10, Batch: 2, PatchH: 20, PatchW: 20, LR: 4e-3, Seed: 15,
	}); err != nil {
		t.Fatal(err)
	}
	base, err := compress(target, EncodeRequest{Bound: quant.RelBound(1e-3)})
	if err != nil {
		t.Fatal(err)
	}
	hyb, err := compress(target, EncodeRequest{Bound: quant.RelBound(1e-3), Model: m, Anchors: anchors})
	if err != nil {
		t.Fatal(err)
	}
	if !(hyb.Stats.CodeEntropy < base.Stats.CodeEntropy) {
		t.Fatalf("hybrid entropy %v >= baseline %v", hyb.Stats.CodeEntropy, base.Stats.CodeEntropy)
	}
	back, err := Decompress(hyb.Blob, anchors)
	if err != nil {
		t.Fatal(err)
	}
	checkBound(t, target, back, hyb.Stats.AbsEB)
}

func TestPredictionQualityHybridBest(t *testing.T) {
	ds, err := sim.GenerateHurricane(sim.HurricaneSpec{NZ: 6, NY: 32, NX: 32, Seed: 16})
	if err != nil {
		t.Fatal(err)
	}
	target := ds.MustField("Wf")
	anchors := []*tensor.Tensor{ds.MustField("Uf"), ds.MustField("Vf"), ds.MustField("Pf")}
	m, err := cfnn.New(cfnn.Config{SpatialRank: 3, NumAnchors: 3, Features: 6, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Train(anchors, target, cfnn.TrainConfig{
		Epochs: 4, StepsPerEpoch: 6, Batch: 1, PatchD: 4, PatchH: 12, PatchW: 12, Seed: 18,
	}); err != nil {
		t.Fatal(err)
	}
	rep, err := PredictionQuality(target, m, anchors, 19)
	if err != nil {
		t.Fatal(err)
	}
	// The hybrid is a least-squares fusion: it must be at least as good as
	// (in practice better than) the best single predictor on the fit
	// sample; allow a small slack for out-of-sample points.
	best := math.Max(rep.PSNRLorenzo, rep.PSNRCross)
	if rep.PSNRHybrid < best-0.5 {
		t.Fatalf("hybrid PSNR %v well below best single %v", rep.PSNRHybrid, best)
	}
	if len(rep.HybridWeights) != 5 {
		t.Fatalf("weights = %v", rep.HybridWeights)
	}
}

// Property: baseline round-trip honors the bound for random smooth-ish
// fields and bounds.
func TestBaselineBoundProperty(t *testing.T) {
	f := func(seed int64, ebExp uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		eb := math.Pow(10, -float64(ebExp%4)-1)
		field := tensor.New(16, 16)
		for i := 0; i < 16; i++ {
			for j := 0; j < 16; j++ {
				field.Set2(float32(5*math.Sin(float64(i+j)/4)+rng.NormFloat64()), i, j)
			}
		}
		res, err := compress(field, EncodeRequest{Bound: quant.AbsBound(eb)})
		if err != nil {
			return false
		}
		back, err := Decompress(res.Blob, nil)
		if err != nil {
			return false
		}
		_, ok, err := VerifyBound(field, back, eb)
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Decompression must be byte-deterministic: same blob, same anchors, same
// output.
func TestDecompressDeterministic(t *testing.T) {
	target := smoothField2D(32, 32, 20)
	anchors := []*tensor.Tensor{target.Clone()}
	model := trainTinyModel(t, anchors, target)
	res, err := compress(target, EncodeRequest{Bound: quant.AbsBound(0.03), Model: model, Anchors: anchors})
	if err != nil {
		t.Fatal(err)
	}
	a, err := Decompress(res.Blob, anchors)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Decompress(res.Blob, anchors)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Data() {
		if a.Data()[i] != b.Data()[i] {
			t.Fatal("non-deterministic decompression")
		}
	}
}

func TestPeekStats(t *testing.T) {
	f := smoothField2D(16, 16, 21)
	res, err := compress(f, EncodeRequest{Bound: quant.RelBound(1e-2)})
	if err != nil {
		t.Fatal(err)
	}
	hdr, err := PeekStats(res.Blob)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Method != container.MethodBaseline || len(hdr.Dims) != 2 {
		t.Fatalf("peek = %+v", hdr.Header)
	}
}
