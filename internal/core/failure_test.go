package core

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/cfnn"
	"repro/internal/container"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// Failure-injection tests: every corruption or misuse must surface as an
// error (or a detected bound violation), never a panic or silent garbage.

func TestDecompressHybridWrongAnchorCount(t *testing.T) {
	target := smoothField2D(24, 24, 30)
	anchors := []*tensor.Tensor{target.Clone()}
	model := trainTinyModel(t, anchors, target)
	res, err := compress(target, EncodeRequest{Bound: quant.AbsBound(0.05), Model: model, Anchors: anchors})
	if err != nil {
		t.Fatal(err)
	}
	// Two anchors instead of one: the embedded model rejects the mismatch.
	if _, err := Decompress(res.Blob, []*tensor.Tensor{target, target}); err == nil {
		t.Fatal("expected anchor-count error")
	}
}

func TestDecompressHybridWrongAnchorShape(t *testing.T) {
	target := smoothField2D(24, 24, 31)
	anchors := []*tensor.Tensor{target.Clone()}
	model := trainTinyModel(t, anchors, target)
	res, err := compress(target, EncodeRequest{Bound: quant.AbsBound(0.05), Model: model, Anchors: anchors})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decompress(res.Blob, []*tensor.Tensor{tensor.New(8, 8)}); err == nil {
		t.Fatal("expected anchor-shape error")
	}
}

func TestDecompressHybridWrongAnchorData(t *testing.T) {
	// Same shape but different anchor values: predictions diverge, so the
	// reconstruction silently differs — the documented contract is that the
	// caller must supply the same anchors; verify the bound check catches
	// the misuse.
	target := smoothField2D(24, 24, 32)
	anchors := []*tensor.Tensor{target.Clone()}
	model := trainTinyModel(t, anchors, target)
	res, err := compress(target, EncodeRequest{Bound: quant.AbsBound(0.01), Model: model, Anchors: anchors})
	if err != nil {
		t.Fatal(err)
	}
	wrong := target.Clone()
	wrong.Scale(3)
	recon, err := Decompress(res.Blob, []*tensor.Tensor{wrong})
	if err != nil {
		// Also acceptable: the pipeline may reject it outright.
		return
	}
	if _, ok, _ := VerifyBound(target, recon, res.Stats.AbsEB); ok {
		t.Fatal("wrong anchors produced an in-bound reconstruction — anchors are not actually used?")
	}
}

func TestDecompressCorruptEmbeddedModel(t *testing.T) {
	target := smoothField2D(24, 24, 33)
	anchors := []*tensor.Tensor{target.Clone()}
	model := trainTinyModel(t, anchors, target)
	res, err := compress(target, EncodeRequest{Bound: quant.AbsBound(0.05), Model: model, Anchors: anchors})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := container.Decode(res.Blob)
	if err != nil {
		t.Fatal(err)
	}
	// Truncate the model section and re-encode.
	blob.Model = blob.Model[:len(blob.Model)/2]
	bad, err := container.Encode(blob)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decompress(bad, anchors); err == nil {
		t.Fatal("expected corrupt-model error")
	}
}

func TestDecompressTamperedHybridWeights(t *testing.T) {
	target := smoothField2D(24, 24, 34)
	anchors := []*tensor.Tensor{target.Clone()}
	model := trainTinyModel(t, anchors, target)
	res, err := compress(target, EncodeRequest{Bound: quant.AbsBound(0.05), Model: model, Anchors: anchors})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := container.Decode(res.Blob)
	if err != nil {
		t.Fatal(err)
	}
	blob.Hybrid = blob.Hybrid[:2] // wrong parameter count for rank 2
	bad, err := container.Encode(blob)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decompress(bad, anchors); err == nil {
		t.Fatal("expected hybrid-parameter-count error")
	}
}

func TestCompressHybridUntrainedModel(t *testing.T) {
	target := smoothField2D(16, 16, 35)
	anchors := []*tensor.Tensor{target.Clone()}
	m, err := cfnn.New(cfnn.Config{SpatialRank: 2, NumAnchors: 1, Features: 4})
	if err != nil {
		t.Fatal(err)
	}
	_, err = compress(target, EncodeRequest{Bound: quant.AbsBound(0.05), Model: m, Anchors: anchors})
	if !errors.Is(err, cfnn.ErrNotTrained) {
		t.Fatalf("err = %v, want ErrNotTrained", err)
	}
}

func TestCompressHybridRank1Rejected(t *testing.T) {
	f := tensor.New(128)
	m, _ := cfnn.New(cfnn.Config{SpatialRank: 2, NumAnchors: 1, Features: 4})
	if _, err := compress(f, EncodeRequest{Bound: quant.AbsBound(0.1), Model: m, Anchors: []*tensor.Tensor{f}}); err == nil {
		t.Fatal("expected rank error")
	}
}

func TestCompressValueRangeOverflow(t *testing.T) {
	f := tensor.New(8, 8)
	f.Fill(1e30)
	f.Set2(-1e30, 0, 0) // huge range, tiny eb -> prequant overflow
	_, err := compress(f, EncodeRequest{Bound: quant.AbsBound(1e-6)})
	if !errors.Is(err, quant.ErrRange) {
		t.Fatalf("err = %v, want quant.ErrRange", err)
	}
}

func TestVerifyBoundShapeMismatch(t *testing.T) {
	if _, _, err := VerifyBound(tensor.New(2, 2), tensor.New(3, 3), 0.1); err == nil {
		t.Fatal("expected shape error")
	}
}

func TestDecompressTruncatedPayload(t *testing.T) {
	f := smoothField2D(32, 32, 36)
	res, err := compress(f, EncodeRequest{Bound: quant.AbsBound(0.01)})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := container.Decode(res.Blob)
	if err != nil {
		t.Fatal(err)
	}
	blob.Payload = blob.Payload[:len(blob.Payload)/2]
	bad, err := container.Encode(blob)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decompress(bad, nil); err == nil {
		t.Fatal("expected truncated-payload error")
	}
}

func TestDecompressMismatchedPayloadRawLen(t *testing.T) {
	f := smoothField2D(16, 16, 37)
	res, err := compress(f, EncodeRequest{Bound: quant.AbsBound(0.01)})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := container.Decode(res.Blob)
	if err != nil {
		t.Fatal(err)
	}
	blob.PayloadRaw++ // lie about the uncompressed length
	bad, err := container.Encode(blob)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decompress(bad, nil); err == nil {
		t.Fatal("expected length-check error")
	}
}

// A cross-only blob must also fail cleanly without anchors.
func TestCrossOnlyNeedsAnchors(t *testing.T) {
	target := smoothField2D(24, 24, 38)
	anchors := []*tensor.Tensor{target.Clone()}
	model := trainTinyModel(t, anchors, target)
	res, err := compressCrossOnly(target, EncodeRequest{Bound: quant.AbsBound(0.05), Model: model, Anchors: anchors})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decompress(res.Blob, nil); !errors.Is(err, ErrNeedAnchors) {
		t.Fatalf("err = %v, want ErrNeedAnchors", err)
	}
}

// The model embedded in the blob must be the one used: round-trip the blob
// through container decode/encode and confirm byte-identical reconstruction.
func TestContainerReencodeStable(t *testing.T) {
	target := smoothField2D(24, 24, 39)
	anchors := []*tensor.Tensor{target.Clone()}
	model := trainTinyModel(t, anchors, target)
	res, err := compress(target, EncodeRequest{Bound: quant.AbsBound(0.05), Model: model, Anchors: anchors})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := container.Decode(res.Blob)
	if err != nil {
		t.Fatal(err)
	}
	re, err := container.Encode(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(re, res.Blob) {
		t.Fatal("container re-encode not byte-stable")
	}
	a, err := Decompress(res.Blob, anchors)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Decompress(re, anchors)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Data() {
		if a.Data()[i] != b.Data()[i] {
			t.Fatal("re-encoded blob decompresses differently")
		}
	}
}
