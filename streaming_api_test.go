package crossfield_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	crossfield "repro"
)

// buildStreamSpecs trains the golden dataset's codec and returns the specs
// both compression entry points are fed.
func buildStreamSpecs(t *testing.T) []crossfield.FieldSpec {
	t.Helper()
	target, anchors := goldenDataset()
	codec, err := crossfield.Train(target, anchors, crossfield.Training{
		Features: 6, Epochs: 4, StepsPerEpoch: 8, Batch: 1, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return []crossfield.FieldSpec{
		{Field: anchors[0]}, {Field: anchors[1]}, {Field: anchors[2]},
		{Field: target, Codec: codec},
	}
}

// The streaming encoder writing to a file and the buffered CompressDataset
// must produce byte-identical archives, and the file must open through
// OpenArchiveReader with every field decoding bit-identically to the
// buffered blob opened with OpenArchive.
func TestCompressDatasetToMatchesBuffered(t *testing.T) {
	specs := buildStreamSpecs(t)
	buffered, err := crossfield.CompressDataset(specs, crossfield.Rel(1e-3),
		crossfield.WithChunks(2*10*12))
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "ds.cfc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := crossfield.CompressDatasetTo(f, specs, crossfield.Rel(1e-3),
		crossfield.WithChunks(2*10*12))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	streamed, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(streamed, buffered.Blob) {
		t.Fatalf("streamed archive (%d bytes) differs from buffered (%d bytes)", len(streamed), len(buffered.Blob))
	}
	if stats.CompressedBytes != len(streamed) {
		t.Fatalf("streaming stats report %d bytes, file holds %d", stats.CompressedBytes, len(streamed))
	}

	rf, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	arFile, err := crossfield.OpenArchiveReader(rf, int64(len(streamed)))
	if err != nil {
		t.Fatal(err)
	}
	arMem, err := crossfield.OpenArchive(buffered.Blob)
	if err != nil {
		t.Fatal(err)
	}
	if arFile.Size() != int64(len(streamed)) {
		t.Fatalf("Size() = %d, want %d", arFile.Size(), len(streamed))
	}
	for _, name := range arMem.Fields() {
		a, err := arFile.Field(name)
		if err != nil {
			t.Fatalf("file-backed decode of %q: %v", name, err)
		}
		b, err := arMem.Field(name)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(floatsToBytes(a.Data()), floatsToBytes(b.Data())) {
			t.Fatalf("field %q decodes differently through the file reader", name)
		}
	}
}

// The committed golden CFC3 fixture (version-1 layout) must open through
// the streaming reader too, decoding every field bit-exactly — old blobs
// gain larger-than-RAM serving for free.
func TestGoldenCFC3ThroughStreamingReader(t *testing.T) {
	blob := readGolden(t, "archive_cfc3.cfc")
	ar, err := crossfield.OpenArchiveReader(bytes.NewReader(blob), int64(len(blob)))
	if err != nil {
		t.Fatalf("golden v1 archive rejected by OpenArchiveReader: %v", err)
	}
	for _, name := range ar.Fields() {
		f, err := ar.Field(name)
		requireRouteBytes(t, "CFC3-reader/"+name, f, err, readGolden(t, "archive_cfc3_"+name+".f32"))
	}
}

// Truncations and trailer corruption must be rejected at open time, not
// discovered mid-decode.
func TestOpenArchiveRejectsCorruptStreamedBlob(t *testing.T) {
	specs := buildStreamSpecs(t)
	res, err := crossfield.CompressDataset(specs, crossfield.Rel(1e-3))
	if err != nil {
		t.Fatal(err)
	}
	blob := res.Blob
	for _, cut := range []int{0, 3, 5, len(blob) / 2, len(blob) - 21, len(blob) - 1} {
		if _, err := crossfield.OpenArchive(blob[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	for _, flip := range []int{len(blob) - 1, len(blob) - 20, len(blob) - 10} {
		bad := append([]byte(nil), blob...)
		bad[flip] ^= 0xff
		if _, err := crossfield.OpenArchive(bad); err == nil {
			t.Fatalf("trailer corruption at %d accepted", flip)
		}
	}
	if _, err := crossfield.OpenArchive(append(append([]byte(nil), blob...), 0)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
	// A flipped payload byte opens (payload checks are lazy) but fails
	// the manifest checksum on every full-fidelity decode route.
	ar, err := crossfield.OpenArchive(blob)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := ar.FieldPayload("U")
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), blob...)
	bad[bytes.Index(blob, payload)+len(payload)/2] ^= 0x40
	if ar, err = crossfield.OpenArchive(bad); err != nil {
		t.Fatalf("payload corruption rejected at open time: %v", err)
	}
	if _, err := ar.Field("U"); !errors.Is(err, crossfield.ErrChecksum) {
		t.Errorf("Field of a flipped payload byte: err = %v, want ErrChecksum", err)
	}
	if _, _, err := ar.DecodeFieldAtLevel("U", crossfield.LevelFull); !errors.Is(err, crossfield.ErrChecksum) {
		t.Errorf("DecodeFieldAtLevel of a flipped payload byte: err = %v, want ErrChecksum", err)
	}
}
