package crossfield_test

// Integration tests across the public API and the file-based tool workflow
// (dataset save/load, model save/load, blob portability) — what cmd/cfgen,
// cmd/cftrain, and cmd/cfc do, exercised as a library.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	crossfield "repro"
	"repro/internal/cfnn"
	"repro/internal/core"
	"repro/internal/quant"
	"repro/internal/sim"
	"repro/internal/tensor"
)

func TestFileWorkflowRoundTrip(t *testing.T) {
	dir := t.TempDir()

	// cfgen: generate and save a dataset.
	ds, err := sim.GenerateHurricane(sim.HurricaneSpec{NZ: 6, NY: 32, NX: 32, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.SaveDataset(dir, ds); err != nil {
		t.Fatal(err)
	}

	// cftrain: load, train, save the model.
	loaded, err := sim.LoadDataset(dir)
	if err != nil {
		t.Fatal(err)
	}
	target := loaded.MustField("Wf")
	uf := loaded.MustField("Uf")
	vf := loaded.MustField("Vf")
	pf := loaded.MustField("Pf")
	anchorFields := []*tensor.Tensor{uf, vf, pf}
	model, err := cfnn.New(cfnn.Config{SpatialRank: 3, NumAnchors: 3, Features: 4, Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := model.Train(anchorFields, target, cfnn.TrainConfig{
		Epochs: 2, StepsPerEpoch: 3, Batch: 1, Seed: 23,
	}); err != nil {
		t.Fatal(err)
	}
	modelPath := filepath.Join(dir, "wf.cfnn")
	mf, err := os.Create(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := model.Save(mf); err != nil {
		t.Fatal(err)
	}
	if err := mf.Close(); err != nil {
		t.Fatal(err)
	}

	// cfc: reload model, round-trip anchors through the baseline, compress
	// hybrid, write the blob, reload, decompress, verify.
	blob2, err := os.ReadFile(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	model2, err := cfnn.Load(blob2)
	if err != nil {
		t.Fatal(err)
	}
	bound := quant.RelBound(1e-3)
	var anchorsDec []*tensor.Tensor
	for _, a := range anchorFields {
		var blob bytes.Buffer
		if _, err := core.Encode(context.Background(), &blob, a, core.EncodeRequest{Bound: bound}); err != nil {
			t.Fatal(err)
		}
		dec, err := core.Decompress(blob.Bytes(), nil)
		if err != nil {
			t.Fatal(err)
		}
		anchorsDec = append(anchorsDec, dec)
	}
	var hybrid bytes.Buffer
	st, err := core.Encode(context.Background(), &hybrid, target, core.EncodeRequest{Bound: bound, Model: model2, Anchors: anchorsDec})
	if err != nil {
		t.Fatal(err)
	}
	blobPath := filepath.Join(dir, "wf.cfc")
	if err := os.WriteFile(blobPath, hybrid.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(blobPath)
	if err != nil {
		t.Fatal(err)
	}
	recon, err := core.Decompress(blob, anchorsDec)
	if err != nil {
		t.Fatal(err)
	}
	maxErr, ok, err := core.VerifyBound(target, recon, st.AbsEB)
	if err != nil || !ok {
		t.Fatalf("file workflow bound violated: %v (err %v)", maxErr, err)
	}
}

// Compression must be deterministic across runs: identical inputs yield
// byte-identical blobs (worker count does not leak into the output).
func TestCompressionDeterministic(t *testing.T) {
	ds, err := crossfield.GenerateHurricane(6, 32, 32, 24)
	if err != nil {
		t.Fatal(err)
	}
	target := ds.MustField("Wf")
	bound := crossfield.Rel(1e-3)
	a, err := crossfield.CompressBaseline(target, bound)
	if err != nil {
		t.Fatal(err)
	}
	b, err := crossfield.CompressBaseline(target, bound)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Blob, b.Blob) {
		t.Fatal("baseline compression not deterministic")
	}
}

// Training with the same seed must be bit-reproducible: twice in one
// process, and against a pinned SHA-256 of the saved 2D and 3D models, so
// that every kernel tier, FMA setting and worker count (CI runs this
// under each) trains the same bits.
func TestTrainingDeterministic(t *testing.T) {
	hur, err := crossfield.GenerateHurricane(6, 24, 24, 25)
	if err != nil {
		t.Fatal(err)
	}
	cesm, err := crossfield.GenerateCESM(32, 48, 27)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		ds      *crossfield.Dataset
		target  string
		anchors []string
		sha256  string
	}{
		{hur, "Wf", []string{"Uf", "Vf", "Pf"}, "c73195605f592896381dded0f9881d073a2ff8ba3f2975aa454a89ccf598e8a8"},
		{cesm, "LWCF", []string{"FLUTC", "FLNT"}, "236086f86ca05ab69baaa9edb3889506f5b0c1c6906d640979336e7ea264cf90"},
	} {
		anchors, err := tc.ds.Fieldset(tc.anchors...)
		if err != nil {
			t.Fatal(err)
		}
		tr := crossfield.Training{Features: 4, Epochs: 2, StepsPerEpoch: 3, Batch: 1, Seed: 26}
		var blobs [2][]byte
		for i := range blobs {
			c, err := crossfield.Train(tc.ds.MustField(tc.target), anchors, tr)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := c.Model().Save(&buf); err != nil {
				t.Fatal(err)
			}
			blobs[i] = buf.Bytes()
		}
		if !bytes.Equal(blobs[0], blobs[1]) {
			t.Fatalf("%s: training not deterministic", tc.target)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(blobs[0])); got != tc.sha256 {
			t.Errorf("%s: trained model SHA-256 %s, pinned %s", tc.target, got, tc.sha256)
		}
	}
}

// Blob from one codec instance must decompress with a freshly-loaded model
// (the model travels inside the blob).
func TestBlobSelfContainedModel(t *testing.T) {
	ds, err := crossfield.GenerateCESM(32, 48, 27)
	if err != nil {
		t.Fatal(err)
	}
	target := ds.MustField("LWCF")
	anchors, err := ds.Fieldset("FLUTC", "FLNT")
	if err != nil {
		t.Fatal(err)
	}
	codec, err := crossfield.Train(target, anchors, crossfield.Training{
		Features: 4, Epochs: 2, StepsPerEpoch: 3, Batch: 1, Seed: 28,
	})
	if err != nil {
		t.Fatal(err)
	}
	bound := crossfield.Rel(1e-3)
	var anchorsDec []*crossfield.Field
	for _, a := range anchors {
		comp, err := crossfield.CompressBaseline(a, bound)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := crossfield.Decompress(a.Name, comp.Blob, nil)
		if err != nil {
			t.Fatal(err)
		}
		anchorsDec = append(anchorsDec, dec)
	}
	res, err := codec.Compress(target, anchorsDec, bound)
	if err != nil {
		t.Fatal(err)
	}
	// Decompress through the package-level function — no codec object.
	recon, err := crossfield.Decompress("LWCF", res.Blob, anchorsDec)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := crossfield.Verify(target, recon, res.Stats.AbsEB); err != nil || !ok {
		t.Fatalf("self-contained decompress failed (err %v)", err)
	}
}
