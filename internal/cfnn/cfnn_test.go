package cfnn

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/tensor"
)

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{SpatialRank: 1, NumAnchors: 1, Features: 4},
		{SpatialRank: 4, NumAnchors: 1, Features: 4},
		{SpatialRank: 2, NumAnchors: 0, Features: 4},
		{SpatialRank: 2, NumAnchors: 1, Features: 0},
		{SpatialRank: 2, NumAnchors: 1, Features: 4, Kernel: 4},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Fatalf("config %d should be invalid: %+v", i, cfg)
		}
	}
	if _, err := New(Config{SpatialRank: 2, NumAnchors: 2, Features: 4}); err != nil {
		t.Fatal(err)
	}
}

func TestChannelCounts(t *testing.T) {
	cfg := Config{SpatialRank: 3, NumAnchors: 3, Features: 8}
	if cfg.InChannels() != 9 || cfg.OutChannels() != 3 {
		t.Fatalf("channels = %d/%d", cfg.InChannels(), cfg.OutChannels())
	}
	cfg2 := Config{SpatialRank: 2, NumAnchors: 4, Features: 8}
	if cfg2.InChannels() != 8 || cfg2.OutChannels() != 2 {
		t.Fatalf("channels = %d/%d", cfg2.InChannels(), cfg2.OutChannels())
	}
}

func TestPaperPresetParamCounts(t *testing.T) {
	// Our architecture's closest widths to Table III. The counts must be
	// within 1.5% of the paper's figures.
	for _, name := range PresetNames() {
		cfg, err := PaperPreset(name)
		if err != nil {
			t.Fatal(err)
		}
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := PaperParamCount(name)
		if err != nil {
			t.Fatal(err)
		}
		got := m.ParamCount()
		rel := math.Abs(float64(got-want)) / float64(want)
		if rel > 0.015 {
			t.Fatalf("%s: %d params vs paper %d (%.2f%% off)", name, got, want, rel*100)
		}
	}
	if _, err := PaperPreset("nope"); err == nil {
		t.Fatal("expected unknown-preset error")
	}
	if _, err := PaperParamCount("nope"); err == nil {
		t.Fatal("expected unknown-preset error")
	}
}

func TestPredictBeforeTrainErrors(t *testing.T) {
	m, err := New(Config{SpatialRank: 2, NumAnchors: 1, Features: 4})
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.PredictDiffs([]*tensor.Tensor{tensor.New(8, 8)})
	if !errors.Is(err, ErrNotTrained) {
		t.Fatalf("err = %v, want ErrNotTrained", err)
	}
}

func TestAnchorValidation(t *testing.T) {
	m, err := New(Config{SpatialRank: 2, NumAnchors: 2, Features: 4})
	if err != nil {
		t.Fatal(err)
	}
	a := tensor.New(8, 8)
	if _, err := m.anchorDiffChannels([]*tensor.Tensor{a}); err == nil {
		t.Fatal("expected anchor-count error")
	}
	if _, err := m.anchorDiffChannels([]*tensor.Tensor{a, tensor.New(4, 4)}); err == nil {
		t.Fatal("expected shape-mismatch error")
	}
	if _, err := m.anchorDiffChannels([]*tensor.Tensor{a, tensor.New(2, 2, 2)}); err == nil {
		t.Fatal("expected rank error")
	}
}

// Train a tiny 2D CFNN on a field whose x-gradient equals the anchor's: the
// model must learn the identity-like mapping well enough to beat a zero
// predictor by a wide margin.
func TestTrainLearnsLinearCoupling(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const ny, nx = 48, 48
	anchor := tensor.New(ny, nx)
	for i := 0; i < ny; i++ {
		for j := 0; j < nx; j++ {
			anchor.Set2(float32(10*math.Sin(float64(i)/5)*math.Cos(float64(j)/7)), i, j)
		}
	}
	target := anchor.Clone()
	target.Scale(2.5) // target diffs are 2.5x anchor diffs — learnable
	for i := range target.Data() {
		target.Data()[i] += rng.Float32() * 0.01
	}
	m, err := New(Config{SpatialRank: 2, NumAnchors: 1, Features: 6, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	losses, err := m.Train([]*tensor.Tensor{anchor}, target, TrainConfig{
		Epochs: 10, StepsPerEpoch: 12, Batch: 2, PatchH: 16, PatchW: 16, LR: 3e-3, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(losses) != 10 {
		t.Fatalf("losses = %d epochs", len(losses))
	}
	if !(losses[len(losses)-1] < losses[0]) {
		t.Fatalf("training loss did not decrease: %v -> %v", losses[0], losses[len(losses)-1])
	}
	if !m.Trained() {
		t.Fatal("model not marked trained")
	}

	preds, err := m.PredictDiffs([]*tensor.Tensor{anchor})
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != 2 {
		t.Fatalf("got %d diff fields, want 2", len(preds))
	}
	// Compare prediction MSE against the zero predictor on the diff
	// channels (boundary-zeroed, the codec's convention).
	trueDiffs, err := diffChannels(target)
	if err != nil {
		t.Fatal(err)
	}
	var msePred, mseZero float64
	for c := 0; c < 2; c++ {
		for i, v := range trueDiffs[c].Data() {
			d := float64(preds[c].Data()[i] - v)
			msePred += d * d
			mseZero += float64(v) * float64(v)
		}
	}
	if msePred >= mseZero*0.5 {
		t.Fatalf("CFNN MSE %v not clearly better than zero predictor %v", msePred, mseZero)
	}
}

func TestTrainShapeValidation(t *testing.T) {
	m, err := New(Config{SpatialRank: 2, NumAnchors: 1, Features: 4})
	if err != nil {
		t.Fatal(err)
	}
	anchor := tensor.New(16, 16)
	if _, err := m.Train([]*tensor.Tensor{anchor}, tensor.New(8, 8), TrainConfig{Epochs: 1, StepsPerEpoch: 1}); err == nil {
		t.Fatal("expected target-shape error")
	}
}

func TestTrainPatchLargerThanField(t *testing.T) {
	// Patch dims clamp to the field; training must still run.
	m, err := New(Config{SpatialRank: 2, NumAnchors: 1, Features: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	anchor := tensor.New(10, 10)
	rng := rand.New(rand.NewSource(6))
	for i := range anchor.Data() {
		anchor.Data()[i] = rng.Float32()
	}
	target := anchor.Clone()
	if _, err := m.Train([]*tensor.Tensor{anchor}, target, TrainConfig{
		Epochs: 1, StepsPerEpoch: 2, Batch: 1, PatchH: 64, PatchW: 64,
	}); err != nil {
		t.Fatal(err)
	}
}

func TestTrain3DRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const nz, ny, nx = 6, 12, 12
	a1 := tensor.New(nz, ny, nx)
	a2 := tensor.New(nz, ny, nx)
	for i := range a1.Data() {
		a1.Data()[i] = rng.Float32()
		a2.Data()[i] = rng.Float32()
	}
	target := a1.Clone()
	m, err := New(Config{SpatialRank: 3, NumAnchors: 2, Features: 4, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	losses, err := m.Train([]*tensor.Tensor{a1, a2}, target, TrainConfig{
		Epochs: 2, StepsPerEpoch: 2, Batch: 1, PatchD: 4, PatchH: 8, PatchW: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(losses) != 2 {
		t.Fatalf("losses = %v", losses)
	}
	preds, err := m.PredictDiffs([]*tensor.Tensor{a1, a2})
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != 3 || !preds[0].SameShape(a1) {
		t.Fatalf("3D prediction output wrong: %d fields, shape %v", len(preds), preds[0].Shape())
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	anchor := tensor.New(24, 24)
	for i := range anchor.Data() {
		anchor.Data()[i] = rng.Float32() * 5
	}
	target := anchor.Clone()
	target.Scale(1.5)
	m, err := New(Config{SpatialRank: 2, NumAnchors: 1, Features: 5, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Train([]*tensor.Tensor{anchor}, target, TrainConfig{Epochs: 2, StepsPerEpoch: 3, Batch: 1}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != m.SizeBytes() {
		t.Fatalf("SizeBytes = %d, actual blob %d", m.SizeBytes(), buf.Len())
	}
	m2, err := Load(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	// Seed is a construction-time detail and is not serialized.
	wantCfg := m.Cfg
	wantCfg.Seed = 0
	if !m2.Trained() || m2.Cfg != wantCfg {
		t.Fatalf("loaded config %+v, trained=%v", m2.Cfg, m2.Trained())
	}
	p1, err := m.PredictDiffs([]*tensor.Tensor{anchor})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := m2.PredictDiffs([]*tensor.Tensor{anchor})
	if err != nil {
		t.Fatal(err)
	}
	for c := range p1 {
		for i := range p1[c].Data() {
			if p1[c].Data()[i] != p2[c].Data()[i] {
				t.Fatal("loaded model predicts differently")
			}
		}
	}
}

func TestLoadCorrupt(t *testing.T) {
	if _, err := Load(nil); err == nil {
		t.Fatal("empty blob")
	}
	if _, err := Load([]byte("XXXX0000")); err == nil {
		t.Fatal("bad magic")
	}
	m, _ := New(Config{SpatialRank: 2, NumAnchors: 1, Features: 4, Seed: 1})
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(buf.Bytes()[:buf.Len()/2]); err == nil {
		t.Fatal("truncated blob")
	}
}

// TestLoadAllocatesAboutTheBlob pins what decoding a model costs: every
// hybrid decode that carries its model loads it, so one Load of the
// width-14 3D Hurricane model (three anchors) may allocate at most twice
// the blob's bytes — the weights themselves, not a read buffer or the
// gradients a decode-only model never uses.
func TestLoadAllocatesAboutTheBlob(t *testing.T) {
	m, err := New(Config{SpatialRank: 3, NumAnchors: 3, Features: 14})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()
	var before, after runtime.MemStats
	minAlloc := uint64(math.MaxUint64)
	for i := 0; i < 3; i++ {
		runtime.ReadMemStats(&before)
		_, err := Load(blob)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		minAlloc = min(minAlloc, after.TotalAlloc-before.TotalAlloc)
	}
	if minAlloc > uint64(2*len(blob)) {
		t.Fatalf("loading a %d-byte model allocated %d bytes, want <= %d", len(blob), minAlloc, 2*len(blob))
	}
}

// TestLoadBoundsAllocation feeds Load an 11-byte header that declares a
// 3D model of width 2^13 (about 200 MiB of weights): it must fail before
// allocating the model, in memory proportional to the header. It also
// checks that the size Load bounds a header by is the saved model's.
func TestLoadBoundsAllocation(t *testing.T) {
	hdr := append([]byte("CFN1"), 3, 1)
	hdr = binary.AppendUvarint(hdr, 1<<13)
	hdr = append(hdr, 3, 4, 1)
	var before, after runtime.MemStats
	minAlloc := uint64(math.MaxUint64)
	for i := 0; i < 3; i++ {
		runtime.ReadMemStats(&before)
		_, err := Load(hdr)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatal("huge-width header loaded")
		}
		minAlloc = min(minAlloc, after.TotalAlloc-before.TotalAlloc)
	}
	if minAlloc > uint64(64*len(hdr)) {
		t.Fatalf("rejecting a %d-byte header allocated %d bytes", len(hdr), minAlloc)
	}

	for _, cfg := range []Config{
		{SpatialRank: 2, NumAnchors: 3, Features: 20},
		{SpatialRank: 3, NumAnchors: 2, Features: 14, Reduction: 8},
		{SpatialRank: 3, NumAnchors: 1, Features: 3, Kernel: 5, NoAttention: true},
	} {
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := m.Cfg.floats(), float64(3*(m.Cfg.InChannels()+m.Cfg.OutChannels())+m.ParamCount()); got != want {
			t.Fatalf("%+v: floats() = %v, model holds %v", cfg, got, want)
		}
	}
}

func TestFastConfigSane(t *testing.T) {
	for _, rank := range []int{2, 3} {
		cfg := FastConfig(rank, 3)
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Fast models must stay well under the paper-parity sizes.
		if m.ParamCount() > 12000 {
			t.Fatalf("fast config rank %d has %d params", rank, m.ParamCount())
		}
	}
}

func TestNormScaleMatchesPaper(t *testing.T) {
	if NormScale != 300.0 {
		t.Fatal("paper normalizes CFNN data to the range 0-300")
	}
}
