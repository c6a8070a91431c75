package crossfield_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	crossfield "repro"
	"repro/internal/archive"
	"repro/internal/chunk"
	"repro/internal/quant"
)

// Every level of the layered CFC2 fixture, full fidelity first.
var fixtureLevels = []int{crossfield.LevelFull, 0, 1, 2}

// rebuildArchive re-encodes a committed archive with field name's payload
// replaced by edit(payload), so the manifest checksum covers the edit.
func rebuildArchive(t *testing.T, file, name string, edit func([]byte) []byte) []byte {
	t.Helper()
	a, err := archive.Decode(readGolden(t, file))
	if err != nil {
		t.Fatal(err)
	}
	payloads := make([][]byte, a.NumFields())
	for i := range payloads {
		if payloads[i], err = a.Payload(i); err != nil {
			t.Fatal(err)
		}
		if a.Entries[i].Name == name {
			payloads[i] = edit(append([]byte(nil), payloads[i]...))
		}
	}
	blob, err := archive.Encode(a.Entries, payloads)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// openBoth opens an archive blob in memory and through an io.ReaderAt.
func openBoth(t *testing.T, blob []byte) map[string]*crossfield.Archive {
	t.Helper()
	ar, err := crossfield.OpenArchive(blob)
	if err != nil {
		t.Fatal(err)
	}
	arR, err := crossfield.OpenArchiveReader(bytes.NewReader(blob), int64(len(blob)))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*crossfield.Archive{"OpenArchive": ar, "OpenArchiveReader": arR}
}

// A CFC2 container followed by trailing bytes is malformed, and every
// request rejects it: whole or one chunk, at every level, from a blob in
// memory and from an archive payload read through its section, where a
// preview reads only a prefix of each chunk.
func TestDecodeRejectsTrailingBytes(t *testing.T) {
	trail := func(p []byte) []byte { return append(p, 1, 2, 3, 4, 5, 6, 7, 8) }
	blob := trail(readGolden(t, "chunked_cfc2v4.cfc"))
	for _, c := range []int{crossfield.Whole, 0, 1, 2} {
		for _, l := range fixtureLevels {
			req := crossfield.DecodeRequest{Chunk: c, Level: l}
			if _, _, _, err := crossfield.Decode(context.Background(), "W", blob, req); !errors.Is(err, chunk.ErrCorrupt) {
				t.Errorf("chunk %d level %d: err = %v, want chunk.ErrCorrupt", c, l, err)
			}
		}
	}
	if _, err := crossfield.Decompress("W", blob, nil); err == nil {
		t.Error("Decompress accepted trailing bytes")
	}
	if _, _, err := crossfield.DecompressChunk("W", blob, 0, nil); err == nil {
		t.Error("DecompressChunk accepted trailing bytes")
	}
	for route, ar := range openBoth(t, rebuildArchive(t, "archive_cfc3v3.cfc", "W", trail)) {
		for _, l := range fixtureLevels {
			if _, _, err := ar.DecodeFieldAtLevel("W", l); !errors.Is(err, chunk.ErrCorrupt) {
				t.Errorf("%s DecodeFieldAtLevel(W, %d): err = %v, want chunk.ErrCorrupt", route, l, err)
			}
		}
	}
}

// Layer CRCs cover what a preview reads: with the deepest layer of the
// last chunk corrupt, every lower level still decodes to its committed
// bytes, whole and chunk by chunk, in memory and through an archive
// section, and only a full-fidelity read fails its checksum.
func TestDecodeCorruptDeepestLayerServesLowerLevels(t *testing.T) {
	flip := func(p []byte) []byte { p[len(p)-1] ^= 0xff; return p }
	blob := flip(readGolden(t, "chunked_cfc2v4.cfc"))
	for _, l := range previewLevels {
		want := readGolden(t, previewFile("chunked_cfc2v4.cfc", l))
		f, _, _, err := crossfield.Decode(context.Background(), "W", blob, crossfield.DecodeRequest{Chunk: crossfield.Whole, Level: l})
		requireRouteBytes(t, fmt.Sprintf("corrupt deepest layer, level %d", l), f, err, want)
		for c := 0; c < 3; c++ {
			if _, _, _, err := crossfield.Decode(context.Background(), "W", blob, crossfield.DecodeRequest{Chunk: c, Level: l}); err != nil {
				t.Errorf("chunk %d level %d: %v", c, l, err)
			}
		}
	}
	for _, c := range []int{crossfield.Whole, 2} {
		if _, _, _, err := crossfield.Decode(context.Background(), "W", blob, crossfield.DecodeRequest{Chunk: c, Level: crossfield.LevelFull}); !errors.Is(err, chunk.ErrChecksum) {
			t.Errorf("chunk %d at full fidelity: err = %v, want chunk.ErrChecksum", c, err)
		}
	}
	// The archive's manifest checksum still covers the payload; the index
	// checksum inside it does not.
	for route, ar := range openBoth(t, rebuildArchive(t, "archive_cfc3v3.cfc", "W", flip)) {
		for _, l := range previewLevels {
			f, _, err := ar.DecodeFieldAtLevel("W", l)
			requireRouteBytes(t, fmt.Sprintf("%s corrupt deepest layer, level %d", route, l), f, err, readGolden(t, previewFile("archive_cfc3v3.cfc/W", l)))
		}
		if _, _, err := ar.DecodeFieldAtLevel("W", crossfield.LevelFull); !errors.Is(err, chunk.ErrChecksum) {
			t.Errorf("%s at full fidelity: err = %v, want chunk.ErrChecksum", route, err)
		}
	}
}

// matrixDataset returns seeded random fields of the given dims: two
// anchors and a target that mixes them with noise.
func matrixDataset(seed int64, dims ...int) (target *crossfield.Field, anchors []*crossfield.Field) {
	rng := rand.New(rand.NewSource(seed))
	n := 1
	for _, d := range dims {
		n *= d
	}
	a, b, w := make([]float32, n), make([]float32, n), make([]float32, n)
	for i := range w {
		a[i] = float32(rng.NormFloat64())
		b[i] = float32(rng.NormFloat64())
		w[i] = 0.6*a[i] - 0.3*b[i] + float32(0.2*rng.NormFloat64())
	}
	return crossfield.MustNewField("W", w, dims...),
		[]*crossfield.Field{crossfield.MustNewField("A", a, dims...), crossfield.MustNewField("B", b, dims...)}
}

// At full fidelity every route decodes a field to the closed form of
// dual quantization, Dequantize(Prequantize(x, eb)) with eb the stored
// bound, bit for bit: the predictor moves only the bytes. The matrix runs
// seeded random 2D and 3D fields, baseline anchors and a hybrid target
// with a narrow model, monolithic and chunked; each field decodes whole
// and chunk by chunk, with whole and slab anchors, on 1, 2 and 3
// workers (requirePayloadRoutes), from its payload in memory and from the
// archive in memory and through an io.ReaderAt.
func TestDecodeRouteMatrixClosedForm(t *testing.T) {
	for _, dims := range [][]int{{36, 20}, {10, 12, 14}} {
		target, anchors := matrixDataset(int64(len(dims)), dims...)
		codec, err := crossfield.Train(target, anchors, crossfield.Training{
			Features: 2, Epochs: 1, StepsPerEpoch: 4, Batch: 1, Seed: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		src := map[string]*crossfield.Field{"W": target, "A": anchors[0], "B": anchors[1]}
		specs := []crossfield.FieldSpec{{Field: anchors[0]}, {Field: anchors[1]}, {Field: target, Codec: codec}}
		slab := target.Len() / dims[0]
		for layout, opts := range map[string][]crossfield.Option{"monolithic": nil, "chunked": {crossfield.WithChunks(3 * slab)}} {
			res, err := crossfield.CompressDataset(specs, crossfield.Rel(1e-3), opts...)
			if err != nil {
				t.Fatal(err)
			}
			archives := openBoth(t, res.Blob)
			ar := archives["OpenArchive"]
			for _, fi := range ar.Manifest() {
				label := fmt.Sprintf("%v %s %s", dims, layout, fi.Name)
				want := floatsToBytes(quant.Dequantize(mustPrequantize(t, src[fi.Name].Data(), fi.AbsEB), fi.AbsEB))
				for route, a := range archives {
					f, err := a.Field(fi.Name)
					requireRouteBytes(t, label+" "+route+" Field", f, err, want)
					f, _, err = a.DecodeFieldAtLevel(fi.Name, crossfield.LevelFull)
					requireRouteBytes(t, label+" "+route+" DecodeFieldAtLevel", f, err, want)
				}
				payload, err := ar.FieldPayload(fi.Name)
				if err != nil {
					t.Fatal(err)
				}
				deps := make([]*crossfield.Field, len(fi.Anchors))
				for k, d := range fi.Anchors {
					if deps[k], err = ar.Field(d); err != nil {
						t.Fatal(err)
					}
				}
				requirePayloadRoutes(t, label, payload, deps, fi.Dims, crossfield.LevelFull, want)
			}
		}
	}
}

func mustPrequantize(t *testing.T, x []float32, eb float64) []int32 {
	t.Helper()
	q, err := quant.Prequantize(x, eb)
	if err != nil {
		t.Fatal(err)
	}
	return q
}
