package crossfield_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	crossfield "repro"
	"repro/internal/cfnn"
	"repro/internal/chunk"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// The golden fixtures under testdata/golden pin every container format
// version the codebase has ever written: a future format bump that breaks
// decoding of old blobs fails here instead of silently corrupting
// archives in the field. Regenerate with
//
//	go test -run TestGolden -update
//
// after an intentional format change, and commit the new fixtures. The
// expectations are exact reconstructed bytes, so these tests also pin the
// decoder's numerics. They run on amd64, where Go never fuses float ops;
// the codec's products carry explicit conversions so arm64 cannot fuse
// them either (see the arm64 step in CI).
var update = flag.Bool("update", false, "rewrite golden fixtures under testdata/golden")

const goldenDir = "testdata/golden"

// goldenField is a small deterministic field (6×10×12) with enough
// structure to exercise Lorenzo, Huffman, and the hybrid path.
func goldenField() *crossfield.Field {
	const nz, ny, nx = 6, 10, 12
	data := make([]float32, nz*ny*nx)
	p := 0
	for k := 0; k < nz; k++ {
		for i := 0; i < ny; i++ {
			for j := 0; j < nx; j++ {
				data[p] = float32(12*math.Sin(0.7*float64(k)+0.3*float64(i)) + 5*math.Cos(0.9*float64(j)))
				p++
			}
		}
	}
	return crossfield.MustNewField("W", data, nz, ny, nx)
}

// goldenDataset is the archive fixture's field set: three anchors and a
// pointwise-linear target, the same construction the API tests use.
func goldenDataset() (target *crossfield.Field, anchors []*crossfield.Field) {
	const nz, ny, nx = 6, 10, 12
	n := nz * ny * nx
	u := make([]float32, n)
	v := make([]float32, n)
	p := make([]float32, n)
	w := make([]float32, n)
	idx := 0
	for k := 0; k < nz; k++ {
		for i := 0; i < ny; i++ {
			for j := 0; j < nx; j++ {
				phase := 0.9*float64(k) + 1.3*float64(i) + 1.7*float64(j)
				uu := 10*math.Sin(phase) + 2*math.Sin(float64(i)/9)
				vv := 8*math.Cos(phase) + 1.5*math.Cos(float64(j)/7)
				pp := 500 + 20*math.Sin(float64(i)/9)*math.Cos(float64(j)/11)
				u[idx] = float32(uu)
				v[idx] = float32(vv)
				p[idx] = float32(pp)
				w[idx] = float32(0.5*uu - 0.4*vv + 0.02*(pp-500))
				idx++
			}
		}
	}
	target = crossfield.MustNewField("W", w, nz, ny, nx)
	anchors = []*crossfield.Field{
		crossfield.MustNewField("U", u, nz, ny, nx),
		crossfield.MustNewField("V", v, nz, ny, nx),
		crossfield.MustNewField("PRES", p, nz, ny, nx),
	}
	return target, anchors
}

// goldenDataset2D is the 2D archive fixture's field set, CESM-style: three
// cloud-cover anchors and the total cloud cover their random overlap
// implies. Both sides are odd and a row is 49 wide, so the 3×3 row
// kernels run full vectors plus a scalar tail on the 47-element
// interior, and the pointwise kernels' 637-element plane ends in a
// partial strip.
func goldenDataset2D() (target *crossfield.Field, anchors []*crossfield.Field) {
	const ny, nx = 13, 49
	n := ny * nx
	low := make([]float32, n)
	med := make([]float32, n)
	hgh := make([]float32, n)
	tot := make([]float32, n)
	for i := 0; i < ny; i++ {
		for j := 0; j < nx; j++ {
			x, y := float64(j)/float64(nx), float64(i)/float64(ny)
			l := 0.5 + 0.4*math.Sin(2*math.Pi*(1.3*x+0.7*y))
			m := 0.45 + 0.35*math.Cos(2*math.Pi*(0.8*x-1.1*y))
			h := 0.3 + 0.25*math.Sin(2*math.Pi*(2.1*x))*math.Cos(2*math.Pi*y)
			k := i*nx + j
			low[k], med[k], hgh[k] = float32(l), float32(m), float32(h)
			tot[k] = float32(1 - (1-l)*(1-m)*(1-h))
		}
	}
	target = crossfield.MustNewField("CLDTOT", tot, ny, nx)
	anchors = []*crossfield.Field{
		crossfield.MustNewField("CLDLOW", low, ny, nx),
		crossfield.MustNewField("CLDMED", med, ny, nx),
		crossfield.MustNewField("CLDHGH", hgh, ny, nx),
	}
	return target, anchors
}

// buildSpecs2D trains the 2D fixture's CFNN at the 2D production width
// and lists the archive's fields, the hybrid dependent last.
func buildSpecs2D(t *testing.T) []crossfield.FieldSpec {
	t.Helper()
	target, anchors := goldenDataset2D()
	codec, err := crossfield.Train(target, anchors, crossfield.Training{
		Features: 20, Epochs: 4, StepsPerEpoch: 8, Batch: 1, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return []crossfield.FieldSpec{
		{Field: anchors[0]}, {Field: anchors[1]}, {Field: anchors[2]},
		{Field: target, Codec: codec},
	}
}

func goldenPath(name string) string { return filepath.Join(goldenDir, name) }

func readGolden(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(goldenPath(name))
	if err != nil {
		t.Fatalf("golden fixture %s missing (run `go test -run TestGolden -update` and commit): %v", name, err)
	}
	return b
}

func writeGolden(t *testing.T, name string, data []byte) {
	t.Helper()
	if err := os.MkdirAll(goldenDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath(name), data, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s (%d bytes)", goldenPath(name), len(data))
}

func floatsToBytes(data []float32) []byte {
	out := make([]byte, 4*len(data))
	for i, v := range data {
		binary.LittleEndian.PutUint32(out[i*4:], math.Float32bits(v))
	}
	return out
}

// cfc2ToV1 rewrites a version-2 CFC2 container as version 1: the version
// byte drops to 1 and the 8-byte achieved-max-error field is removed from
// every index entry. Payload bytes are untouched, so the v1 fixture
// decodes to exactly the v2 expectation — which is precisely what the
// format's compatibility contract promises.
func cfc2ToV1(t *testing.T, blob []byte) []byte {
	t.Helper()
	if string(blob[:4]) != "CFC2" || blob[4] != 2 {
		t.Fatalf("not a CFC2 v2 blob")
	}
	off := 4 // magic
	out := append([]byte(nil), blob[:4]...)
	out = append(out, 1) // version byte
	off++
	// method, bound mode, bound value, abs eb
	out = append(out, blob[off:off+2+16]...)
	off += 2 + 16
	uv := func() uint64 {
		v, n := binary.Uvarint(blob[off:])
		if n <= 0 {
			t.Fatalf("bad uvarint at offset %d", off)
		}
		out = append(out, blob[off:off+n]...)
		off += n
		return v
	}
	rank := uv()
	for i := uint64(0); i < rank; i++ {
		uv()
	}
	numAnchors := uv()
	for i := uint64(0); i < numAnchors; i++ {
		l := uv()
		out = append(out, blob[off:off+int(l)]...)
		off += int(l)
	}
	modelLen := uv()
	out = append(out, blob[off:off+int(modelLen)]...)
	off += int(modelLen)
	numChunks := uv()
	for i := uint64(0); i < numChunks; i++ {
		uv()                                  // slab count
		uv()                                  // payload length
		out = append(out, blob[off:off+4]...) // CRC32
		off += 4
		off += 8 // drop the v2 max-error float
	}
	out = append(out, blob[off:]...) // payloads
	return out
}

// Each decode test regenerates its own fixtures when -update is set, so
// one `go test -run TestGolden -update` run rewrites everything without
// depending on test execution order. The block-coded fixtures and the
// CFC3 v1 archive are the exception: nothing writes them any more (see
// TestGoldenCFC1V2Blocks and regenGoldenArchive).

// goldenEncoders are the calls that write each fixture the current
// encoder still writes. The regen functions commit their bytes, and
// TestEncodeReproducesGolden holds the encoder to the committed files.
var goldenEncoders = map[string]func(t *testing.T) (*crossfield.Compressed, error){
	"baseline_cfc1.cfc": func(*testing.T) (*crossfield.Compressed, error) {
		return crossfield.CompressBaseline(goldenField(), crossfield.Abs(0.05))
	},
	"chunked_cfc2v2.cfc": func(*testing.T) (*crossfield.Compressed, error) {
		return crossfield.CompressBaseline(goldenField(), crossfield.Abs(0.05),
			crossfield.WithChunks(2*10*12)) // 3 chunks of 2 slabs
	},
	"baseline_cfc1v3.cfc": func(*testing.T) (*crossfield.Compressed, error) {
		return crossfield.CompressBaseline(goldenField(), crossfield.Abs(0.05),
			crossfield.WithProgressive(3))
	},
	"chunked_cfc2v4.cfc": func(*testing.T) (*crossfield.Compressed, error) {
		return crossfield.CompressBaseline(goldenField(), crossfield.Abs(0.05),
			crossfield.WithChunks(2*10*12), crossfield.WithProgressive(3))
	},
	"archive_cfc3v3.cfc": func(t *testing.T) (*crossfield.Compressed, error) {
		return datasetBlob(crossfield.CompressDataset(buildStreamSpecs(t), crossfield.Rel(1e-3),
			crossfield.WithChunks(2*10*12), crossfield.WithProgressive(3)))
	},
	// The 2D archive, in chunks of four rows.
	"archive2d_cfc3.cfc": func(t *testing.T) (*crossfield.Compressed, error) {
		return datasetBlob(crossfield.CompressDataset(buildSpecs2D(t), crossfield.Rel(1e-3),
			crossfield.WithChunks(4*49)))
	},
}

// datasetBlob carries an archive's bytes as a Compressed.
func datasetBlob(ds *crossfield.CompressedDataset, err error) (*crossfield.Compressed, error) {
	if err != nil {
		return nil, err
	}
	return &crossfield.Compressed{Blob: ds.Blob}, nil
}

// encodeGolden re-encodes fixture file through its goldenEncoders call.
func encodeGolden(t *testing.T, file string) []byte {
	t.Helper()
	res, err := goldenEncoders[file](t)
	if err != nil {
		t.Fatal(err)
	}
	return res.Blob
}

func regenGoldenBaseline(t *testing.T) {
	blob := encodeGolden(t, "baseline_cfc1.cfc")
	writeGolden(t, "baseline_cfc1.cfc", blob)
	back, err := crossfield.Decompress("W", blob, nil)
	if err != nil {
		t.Fatal(err)
	}
	writeGolden(t, "baseline_cfc1.f32", floatsToBytes(back.Data()))
}

func regenGoldenChunked(t *testing.T) {
	blob := encodeGolden(t, "chunked_cfc2v2.cfc")
	writeGolden(t, "chunked_cfc2v2.cfc", blob)
	writeGolden(t, "chunked_cfc2v1.cfc", cfc2ToV1(t, blob))
	back, err := crossfield.Decompress("W", blob, nil)
	if err != nil {
		t.Fatal(err)
	}
	writeGolden(t, "chunked_cfc2.f32", floatsToBytes(back.Data()))
}

// Layered (progressive) fixtures. Consuming every layer recovers exactly
// the quantized integers the sequential payloads store, so the
// full-prefix decodes share the existing .f32 expectations. Each preview
// level gets its own expectation (previewFile), which pins the preview
// bytes as well as their advertised bounds.
func regenGoldenLayered(t *testing.T) {
	for _, file := range []string{"baseline_cfc1v3.cfc", "chunked_cfc2v4.cfc"} {
		blob := encodeGolden(t, file)
		writeGolden(t, file, blob)
		for _, l := range previewLevels {
			back, _, _, err := crossfield.Decode(context.Background(), "W", blob, crossfield.DecodeRequest{Chunk: crossfield.Whole, Level: l})
			if err != nil {
				t.Fatal(err)
			}
			writeGolden(t, previewFile(file, l), floatsToBytes(back.Data()))
		}
	}
}

// previewLevels are the preview levels of the three-level layered
// fixtures; the deepest level is full fidelity and shares the
// non-layered expectation.
var previewLevels = []int{0, 1}

// previewFile names the committed expectation of a layered fixture (or
// one archive field of it, "archive.cfc/W") decoded at a preview level.
func previewFile(fixture string, level int) string {
	stem := strings.Replace(strings.TrimSuffix(fixture, ".cfc"), ".cfc/", "_", 1)
	return fmt.Sprintf("%s_level%d.f32", stem, level)
}

func regenGoldenLayeredArchive(t *testing.T) {
	blob := encodeGolden(t, "archive_cfc3v3.cfc")
	writeGolden(t, "archive_cfc3v3.cfc", blob)
	ar, err := crossfield.OpenArchive(blob)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range previewLevels {
		f, _, err := ar.DecodeFieldAtLevel("W", l)
		if err != nil {
			t.Fatal(err)
		}
		writeGolden(t, previewFile("archive_cfc3v3.cfc/W", l), floatsToBytes(f.Data()))
	}
}

// regenGoldenArchive rewrites the field expectations of the CFC3 v1
// archive by decoding the committed blob. The blob itself is frozen like
// the block-coded fixtures: the encoder writes CFC3 v2, so -update leaves
// archive_cfc3.cfc, the only v1 archive fixture, as committed.
func regenGoldenArchive(t *testing.T) {
	ar, err := crossfield.OpenArchive(readGolden(t, "archive_cfc3.cfc"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range ar.Fields() {
		f, err := ar.Field(name)
		if err != nil {
			t.Fatal(err)
		}
		writeGolden(t, fmt.Sprintf("archive_cfc3_%s.f32", name), floatsToBytes(f.Data()))
	}
}

// regenGoldenArchive2D writes the 2D archive and the reconstruction of
// each of its fields.
func regenGoldenArchive2D(t *testing.T) {
	blob := encodeGolden(t, "archive2d_cfc3.cfc")
	writeGolden(t, "archive2d_cfc3.cfc", blob)
	ar, err := crossfield.OpenArchive(blob)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range ar.Fields() {
		f, err := ar.Field(name)
		if err != nil {
			t.Fatal(err)
		}
		writeGolden(t, fmt.Sprintf("archive2d_cfc3_%s.f32", name), floatsToBytes(f.Data()))
	}
}

func TestGoldenCFC1Baseline(t *testing.T) {
	if *update {
		regenGoldenBaseline(t)
	}
	// The committed blob's reconstruction (TestGoldenRoutesAgree pins every
	// route to it) must still honor its recorded bound against the
	// deterministic source field.
	back := goldenExpectation(t, "baseline_cfc1.f32", goldenField().Dims())
	if maxErr, ok, err := crossfield.Verify(goldenField(), back, 0.05); err != nil || !ok {
		t.Fatalf("bound violated: maxErr=%g ok=%v err=%v", maxErr, ok, err)
	}
}

func TestGoldenCFC2V2(t *testing.T) {
	if *update {
		regenGoldenChunked(t)
	}
	blob := readGolden(t, "chunked_cfc2v2.cfc")
	if n, err := crossfield.ChunkCount(blob); err != nil || n != 3 {
		t.Fatalf("ChunkCount = %d, %v; want 3", n, err)
	}
}

func TestGoldenCFC2V1(t *testing.T) {
	if *update {
		regenGoldenChunked(t)
	}
	blob := readGolden(t, "chunked_cfc2v1.cfc")
	// v1 lacks per-chunk errors but carries identical payloads, so
	// TestGoldenRoutesAgree holds it to the v2 expectation bit for bit.
	if blob[4] != 1 {
		t.Fatalf("fixture version byte = %d, want 1", blob[4])
	}
}

// Block-coded fixtures are frozen: the encoder no longer writes CFC1 v2
// or CFC2 v3, so -update leaves baseline_cfc1v2.cfc, chunked_cfc2v3.cfc
// and archive_cfc3_blocks.cfc (whose field payloads are CFC2 v3, the
// CFNN-hybrid W included) as committed. Dual quantization fixes every
// quantized integer before prediction runs, so block-coded payloads
// reconstruct the same floats as the sequential ones, and
// TestGoldenRoutesAgree holds them to the sequential expectations.
func TestGoldenCFC1V2Blocks(t *testing.T) {
	blob := readGolden(t, "baseline_cfc1v2.cfc")
	if blob[4] != 2 {
		t.Fatalf("fixture version byte = %d, want 2", blob[4])
	}
}

func TestGoldenCFC2V3Blocks(t *testing.T) {
	blob := readGolden(t, "chunked_cfc2v3.cfc")
	if blob[4] != 3 {
		t.Fatalf("fixture version byte = %d, want 3", blob[4])
	}
}

func TestGoldenCFC3Archive(t *testing.T) {
	if *update {
		regenGoldenArchive(t)
	}
	blob := readGolden(t, "archive_cfc3.cfc")
	if blob[4] != 1 {
		t.Fatalf("fixture version byte = %d, want 1", blob[4])
	}
	ar, err := crossfield.OpenArchive(blob)
	if err != nil {
		t.Fatalf("CFC3 golden archive no longer opens: %v", err)
	}
	if names := ar.Fields(); len(names) != 4 {
		t.Fatalf("archive holds %v, want 4 fields", names)
	}
	// The dependent field's manifest entry must still record its graph.
	fi, ok := ar.FieldInfoFor("W")
	if !ok || fi.Role != "dependent" || len(fi.Anchors) != 3 {
		t.Fatalf("W manifest entry = %+v", fi)
	}
}

// TestGoldenCFC3Archive2D pins a 2D archive with a CFNN-hybrid
// dependent, the only fixture whose network runs the 2D layers.
func TestGoldenCFC3Archive2D(t *testing.T) {
	if *update {
		regenGoldenArchive2D(t)
	}
	ar, err := crossfield.OpenArchive(readGolden(t, "archive2d_cfc3.cfc"))
	if err != nil {
		t.Fatalf("2D golden archive no longer opens: %v", err)
	}
	fi, ok := ar.FieldInfoFor("CLDTOT")
	if !ok || fi.Role != "dependent" || len(fi.Anchors) != 3 || fi.Container != "CFC2" {
		t.Fatalf("CLDTOT manifest entry = %+v", fi)
	}
	if n := len(ar.Fields()); n != 4 {
		t.Fatalf("2D archive holds %d fields, want 4", n)
	}
	target, _ := goldenDataset2D()
	back := goldenExpectation(t, "archive2d_cfc3_CLDTOT.f32", fi.Dims)
	if maxErr, ok, err := crossfield.Verify(target, back, fi.AbsEB); err != nil || !ok {
		t.Fatalf("CLDTOT bound violated: maxErr=%g bound=%g ok=%v err=%v", maxErr, fi.AbsEB, ok, err)
	}
}

// TestGoldenPredictDiffs pins the CFNN's raw output, the golden check of
// the predicted diffs: each archive's embedded hybrid model, run over
// the committed reconstructions of its anchors, must predict the
// committed per-axis difference fields bit for bit, through PredictDiffs
// and through a serial arena pass. Decoded bytes see the diffs only
// through the quantizer, so a one-ulp change in the network can leave
// the decode fixtures passing; this test cannot miss it.
func TestGoldenPredictDiffs(t *testing.T) {
	for _, fx := range []struct {
		archive, prefix, field string
		regen                  func(*testing.T)
	}{
		{"archive_cfc3.cfc", "archive_cfc3", "W", nil},
		{"archive2d_cfc3.cfc", "archive2d_cfc3", "CLDTOT", regenGoldenArchive2D},
	} {
		if *update && fx.regen != nil {
			fx.regen(t)
		}
		ar, err := crossfield.OpenArchive(readGolden(t, fx.archive))
		if err != nil {
			t.Fatal(err)
		}
		fi, _ := ar.FieldInfoFor(fx.field)
		payload, err := ar.FieldPayload(fx.field)
		if err != nil {
			t.Fatal(err)
		}
		c, err := chunk.Decode(payload)
		if err != nil {
			t.Fatalf("%s/%s: %v", fx.archive, fx.field, err)
		}
		model, err := cfnn.Load(c.Model)
		if err != nil {
			t.Fatalf("%s/%s: %v", fx.archive, fx.field, err)
		}
		anchors := make([]*tensor.Tensor, len(fi.Anchors))
		for k, dep := range fi.Anchors {
			anchors[k] = goldenExpectation(t, fx.prefix+"_"+dep+".f32", fi.Dims).Tensor()
		}
		file := fx.prefix + "_" + fx.field + "_diffs.f32"
		for _, serial := range []bool{false, true} {
			var diffs []*tensor.Tensor
			if serial {
				diffs, err = model.PredictDiffsWith(anchors, nn.NewArena(), 1)
			} else {
				diffs, err = model.PredictDiffs(anchors)
			}
			if err != nil {
				t.Fatalf("%s/%s: %v", fx.archive, fx.field, err)
			}
			var got []byte
			for _, d := range diffs {
				got = append(got, floatsToBytes(d.Data())...)
			}
			if *update {
				writeGolden(t, file, got)
				break
			}
			if want := readGolden(t, file); !bytes.Equal(got, want) {
				t.Fatalf("%s/%s (serial=%v): predicted diffs differ from %s", fx.archive, fx.field, serial, file)
			}
		}
	}
}

func TestGoldenCFC1V3Layered(t *testing.T) {
	if *update {
		regenGoldenLayered(t)
	}
	blob := readGolden(t, "baseline_cfc1v3.cfc")
	if blob[4] != 3 {
		t.Fatalf("fixture version byte = %d, want 3", blob[4])
	}
	// Full-prefix decode recovers the quantized integers exactly, so
	// TestGoldenRoutesAgree holds it to the sequential expectation.
	spec, err := crossfield.PayloadLevels(blob)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Levels != 3 {
		t.Fatalf("layer table reports %d levels, want 3", spec.Levels)
	}
	// Every preview level must honor the bound its layer table advertises
	// against the deterministic source field (absolute bound 0.05).
	src := goldenField()
	for l := 0; l < spec.Levels; l++ {
		part, _, achieved, err := crossfield.Decode(context.Background(), "W", blob, crossfield.DecodeRequest{Chunk: crossfield.Whole, Level: l})
		if err != nil {
			t.Fatalf("level %d no longer decodes: %v", l, err)
		}
		bound := spec.Bound(l, 0.05)
		if achieved > bound {
			t.Fatalf("level %d: recorded max error %g over advertised bound %g", l, achieved, bound)
		}
		if maxErr, ok, err := crossfield.Verify(src, part, bound); err != nil || !ok {
			t.Fatalf("level %d: maxErr=%g over advertised bound %g (ok=%v err=%v)", l, maxErr, bound, ok, err)
		}
	}
}

func TestGoldenCFC2V4Layered(t *testing.T) {
	if *update {
		regenGoldenLayered(t)
	}
	blob := readGolden(t, "chunked_cfc2v4.cfc")
	if blob[4] != 4 {
		t.Fatalf("fixture version byte = %d, want 4", blob[4])
	}
	if n, err := crossfield.ChunkCount(blob); err != nil || n != 3 {
		t.Fatalf("ChunkCount = %d, %v; want 3", n, err)
	}
	spec, err := crossfield.PayloadLevels(blob)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Levels != 3 {
		t.Fatalf("layer table reports %d levels, want 3", spec.Levels)
	}
	// Base-level random access stays within the base layer's advertised
	// bound over the chunk's slab range of the source field.
	part, start, achieved, err := crossfield.Decode(context.Background(), "W", blob, crossfield.DecodeRequest{Chunk: 1, Level: 0})
	if err != nil {
		t.Fatal(err)
	}
	if start != 2 {
		t.Fatalf("chunk 1 start = %d, want 2", start)
	}
	const slab = 10 * 12
	srcChunk := crossfield.MustNewField("W",
		goldenField().Data()[start*slab:(start+2)*slab], 2, 10, 12)
	bound := spec.Bound(0, 0.05)
	if achieved > bound {
		t.Fatalf("chunk base level: recorded max error %g over advertised bound %g", achieved, bound)
	}
	if maxErr, ok, err := crossfield.Verify(srcChunk, part, bound); err != nil || !ok {
		t.Fatalf("chunk base level: maxErr=%g over bound %g (ok=%v err=%v)", maxErr, bound, ok, err)
	}
}

func TestGoldenCFC3V3LayeredArchive(t *testing.T) {
	if *update {
		regenGoldenLayeredArchive(t)
	}
	blob := readGolden(t, "archive_cfc3v3.cfc")
	if string(blob[:4]) != "CFC3" || blob[4] != 3 {
		t.Fatalf("fixture header = %q v%d, want CFC3 v3", blob[:4], blob[4])
	}
	// Full-fidelity decodes share the non-layered archive's expectations
	// (TestGoldenRoutesAgree).
	ar, err := crossfield.OpenArchive(blob)
	if err != nil {
		t.Fatalf("CFC3 v3 golden archive no longer opens: %v", err)
	}
	// The dependent field's base level stays within its advertised bound
	// against the deterministic source dataset.
	spec, err := ar.FieldLevels("W")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Levels != 3 {
		t.Fatalf("W layer table reports %d levels, want 3", spec.Levels)
	}
	fi, ok := ar.FieldInfoFor("W")
	if !ok {
		t.Fatal("W missing from manifest")
	}
	f0, achieved, err := ar.DecodeFieldAtLevel("W", 0)
	if err != nil {
		t.Fatal(err)
	}
	target, _ := goldenDataset()
	bound := spec.Bound(0, fi.AbsEB)
	if achieved > bound {
		t.Fatalf("W base level: recorded max error %g over advertised bound %g", achieved, bound)
	}
	if maxErr, ok, err := crossfield.Verify(target, f0, bound); err != nil || !ok {
		t.Fatalf("W base level: maxErr=%g over bound %g (ok=%v err=%v)", maxErr, bound, ok, err)
	}
}

// goldenExpectation loads a committed .f32 expectation as a field.
func goldenExpectation(t *testing.T, file string, dims []int) *crossfield.Field {
	t.Helper()
	raw := readGolden(t, file)
	data := make([]float32, len(raw)/4)
	for i := range data {
		data[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[i*4:]))
	}
	f, err := crossfield.NewField(file, data, dims...)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestGoldenRoutesAgree is the route-equivalence table: every committed
// fixture — each CFC1, CFC2 and CFC3 version, and every field of the
// archives — decodes through every library decode entry to bytes
// identical to its committed expectation. Full-level calls run at
// LevelFull; chunk calls run at workers 1 and 4 and are reassembled at
// their reported starts. The layered fixtures (and the hybrid field W of
// the layered archive, whose base layer predicts from scaled CFNN
// differences) also decode at every preview level through every
// level-aware entry. Hybrid payloads decode against their anchors'
// committed expectations.
func TestGoldenRoutesAgree(t *testing.T) {
	if *update {
		t.Skip("regenerating")
	}
	dims := goldenField().Dims()
	for _, fx := range []struct{ file, want string }{
		{"baseline_cfc1.cfc", "baseline_cfc1.f32"}, {"baseline_cfc1v2.cfc", "baseline_cfc1.f32"},
		{"baseline_cfc1v3.cfc", "baseline_cfc1.f32"}, {"chunked_cfc2v1.cfc", "chunked_cfc2.f32"},
		{"chunked_cfc2v2.cfc", "chunked_cfc2.f32"}, {"chunked_cfc2v3.cfc", "chunked_cfc2.f32"},
		{"chunked_cfc2v4.cfc", "chunked_cfc2.f32"},
	} {
		requirePayloadRoutes(t, fx.file, readGolden(t, fx.file), nil, dims, crossfield.LevelFull, readGolden(t, fx.want))
	}
	for _, file := range []string{"baseline_cfc1v3.cfc", "chunked_cfc2v4.cfc"} {
		for _, l := range previewLevels {
			requirePayloadRoutes(t, file, readGolden(t, file), nil, dims, l, readGolden(t, previewFile(file, l)))
		}
	}
	for _, fx := range []struct{ file, prefix string }{
		{"archive_cfc3.cfc", "archive_cfc3"}, {"archive_cfc3v3.cfc", "archive_cfc3"},
		{"archive_cfc3_blocks.cfc", "archive_cfc3"}, {"archive2d_cfc3.cfc", "archive2d_cfc3"},
	} {
		file := fx.file
		blob := readGolden(t, file)
		ar, err := crossfield.OpenArchive(blob)
		if err != nil {
			t.Fatalf("%s no longer opens: %v", file, err)
		}
		arR, err := crossfield.OpenArchiveReader(bytes.NewReader(blob), int64(len(blob)))
		if err != nil {
			t.Fatalf("%s no longer opens through a ReaderAt: %v", file, err)
		}
		for _, fi := range ar.Manifest() {
			label, want := file+"/"+fi.Name, readGolden(t, fx.prefix+"_"+fi.Name+".f32")
			anchors := make([]*crossfield.Field, len(fi.Anchors))
			for k, dep := range fi.Anchors {
				anchors[k] = goldenExpectation(t, fx.prefix+"_"+dep+".f32", fi.Dims)
			}
			payload, err := ar.FieldPayload(fi.Name)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			requirePayloadRoutes(t, label, payload, anchors, fi.Dims, crossfield.LevelFull, want)
			f, err := ar.Field(fi.Name)
			requireRouteBytes(t, label+" Archive.Field", f, err, want)
			f, err = ar.DecodeField(fi.Name, anchors)
			requireRouteBytes(t, label+" Archive.DecodeField", f, err, want)
			levels := []int{crossfield.LevelFull}
			if file == "archive_cfc3v3.cfc" && fi.Name == "W" {
				levels = append(levels, previewLevels...)
			}
			for _, l := range levels {
				want := want
				if l != crossfield.LevelFull {
					want = readGolden(t, previewFile(label, l))
					requirePayloadRoutes(t, label, payload, anchors, fi.Dims, l, want)
				}
				f, _, err = ar.DecodeFieldAtLevel(fi.Name, l)
				requireRouteBytes(t, fmt.Sprintf("%s Archive.DecodeFieldAtLevel(%d)", label, l), f, err, want)
				f, _, err = arR.DecodeFieldAtLevel(fi.Name, l)
				requireRouteBytes(t, fmt.Sprintf("%s ReaderAt Archive.DecodeFieldAtLevel(%d)", label, l), f, err, want)
			}
		}
	}
}

// requirePayloadRoutes decodes one payload (a CFC1 or CFC2 blob) at
// level through every DecodeRequest: the whole field and every chunk,
// the chunks with whole anchors and with anchors cut to their slab range
// (as the serving layer does), on 1, 2 and 3 workers. At LevelFull it
// also decodes through Decompress and DecompressChunk.
func requirePayloadRoutes(t *testing.T, label string, blob []byte, anchors []*crossfield.Field, dims []int, level int, want []byte) {
	t.Helper()
	label = fmt.Sprintf("%s@%d", label, level)
	n, err := crossfield.ChunkCount(blob)
	if err != nil {
		t.Fatalf("%s: ChunkCount: %v", label, err)
	}
	slab := len(want) / 4 / dims[0]
	decode := func(route string, req crossfield.DecodeRequest) (*crossfield.Field, int) {
		t.Helper()
		f, start, _, err := crossfield.Decode(context.Background(), "W", blob, req)
		if err != nil {
			t.Fatalf("%s %s no longer decodes: %v", label, route, err)
		}
		return f, start
	}
	for _, w := range []int{1, 2, 3} {
		req := crossfield.DecodeRequest{Chunk: crossfield.Whole, Level: level, Anchors: anchors, Workers: w}
		f, _ := decode(fmt.Sprintf("Whole/w=%d", w), req)
		requireRouteBytes(t, fmt.Sprintf("%s Whole/w=%d", label, w), f, nil, want)
		byChunk, bySlabs := make([]float32, len(want)/4), make([]float32, len(want)/4)
		for i := 0; i < n; i++ {
			route := fmt.Sprintf("chunk %d/w=%d", i, w)
			req := req
			req.Chunk = i
			f, start := decode(route, req)
			copy(byChunk[start*slab:], f.Data())
			req.Slabs, req.Anchors = true, make([]*crossfield.Field, len(anchors))
			for k, a := range anchors {
				req.Anchors[k] = crossfield.MustNewField(a.Name, a.Data()[start*slab:start*slab+f.Len()], f.Dims()...)
			}
			f, start = decode(route+" slabs", req)
			copy(bySlabs[start*slab:], f.Data())
		}
		requireRouteBytes(t, fmt.Sprintf("%s chunks/w=%d", label, w), crossfield.MustNewField("W", byChunk, dims...), nil, want)
		requireRouteBytes(t, fmt.Sprintf("%s slab chunks/w=%d", label, w), crossfield.MustNewField("W", bySlabs, dims...), nil, want)
	}
	if level != crossfield.LevelFull {
		return
	}
	f, err := crossfield.Decompress("W", blob, anchors)
	requireRouteBytes(t, label+" Decompress", f, err, want)
	out := make([]float32, len(want)/4)
	for i := 0; i < n; i++ {
		f, start, err := crossfield.DecompressChunk("W", blob, i, anchors)
		if err != nil {
			t.Fatalf("%s DecompressChunk %d: %v", label, i, err)
		}
		copy(out[start*slab:], f.Data())
	}
	requireRouteBytes(t, label+" DecompressChunk", crossfield.MustNewField("W", out, dims...), nil, want)
}

// requireRouteBytes compares one route's reconstruction with the
// committed expectation bit for bit.
func requireRouteBytes(t *testing.T, label string, got *crossfield.Field, err error, want []byte) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s no longer decodes: %v", label, err)
	}
	gotB := floatsToBytes(got.Data())
	if len(gotB) != len(want) {
		t.Fatalf("%s: decoded %d bytes, expectation holds %d", label, len(gotB), len(want))
	}
	for i := range gotB {
		if gotB[i] != want[i] {
			t.Fatalf("%s: differs from the expectation at byte %d (value %d): old blobs no longer decode bit-exactly", label, i, i/4)
		}
	}
}

// TestFormatsSpecAgainstGoldenFixtures cross-checks docs/FORMATS.md's
// byte-level claims against the committed fixtures and a freshly written
// streaming archive: magic strings, version bytes, and the CFC3 v2
// trailer geometry. If this fails, either the formats drifted (regenerate
// fixtures deliberately) or the spec document is stale — fix whichever is
// wrong.
func TestFormatsSpecAgainstGoldenFixtures(t *testing.T) {
	if *update {
		t.Skip("regenerating")
	}
	for _, tc := range []struct {
		file    string
		magic   string
		version byte
	}{
		{"baseline_cfc1.cfc", "CFC1", 1},
		{"baseline_cfc1v2.cfc", "CFC1", 2},
		{"baseline_cfc1v3.cfc", "CFC1", 3},
		{"chunked_cfc2v1.cfc", "CFC2", 1},
		{"chunked_cfc2v2.cfc", "CFC2", 2},
		{"chunked_cfc2v3.cfc", "CFC2", 3},
		{"chunked_cfc2v4.cfc", "CFC2", 4},
		{"archive_cfc3.cfc", "CFC3", 1},
		{"archive_cfc3v3.cfc", "CFC3", 3},
		{"archive_cfc3_blocks.cfc", "CFC3", 2},
		{"archive2d_cfc3.cfc", "CFC3", 2},
	} {
		b := readGolden(t, tc.file)
		if string(b[:4]) != tc.magic || b[4] != tc.version {
			t.Errorf("%s: header %q v%d, spec says %q v%d", tc.file, b[:4], b[4], tc.magic, tc.version)
		}
	}
	// The block-coded archive's field payloads are block-coded CFC2 v3
	// containers, the hybrid field included.
	ar, err := crossfield.OpenArchive(readGolden(t, "archive_cfc3_blocks.cfc"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range ar.Fields() {
		p, err := ar.FieldPayload(name)
		if err != nil {
			t.Fatal(err)
		}
		if string(p[:4]) != "CFC2" || p[4] != 3 {
			t.Errorf("archive_cfc3_blocks.cfc/%s: payload %q v%d, want CFC2 v3", name, p[:4], p[4])
		}
	}
	// Layer-table claims: version-3 CFC1 (and the chunked v4 carrying it)
	// holds a base layer plus refinement planes whose byte prefixes grow
	// strictly and end at the whole blob — "consume any prefix, stop at any
	// layer" only works if the table's lengths describe the payload bytes
	// exactly.
	for _, file := range []string{"baseline_cfc1v3.cfc", "chunked_cfc2v4.cfc"} {
		b := readGolden(t, file)
		spec, err := crossfield.PayloadLevels(b)
		if err != nil {
			t.Errorf("%s: layer table unreadable: %v", file, err)
			continue
		}
		if spec.Levels < 2 {
			t.Errorf("%s: %d levels, spec requires a base layer plus refinement planes", file, spec.Levels)
		}
		prefixes, err := crossfield.PayloadLevelBytes(b)
		if err != nil {
			t.Errorf("%s: %v", file, err)
			continue
		}
		for l := 1; l < len(prefixes); l++ {
			if prefixes[l] <= prefixes[l-1] {
				t.Errorf("%s: level %d prefix %d not past level %d's %d", file, l, prefixes[l], l-1, prefixes[l-1])
			}
		}
		if got := prefixes[len(prefixes)-1]; got != int64(len(b)) {
			t.Errorf("%s: deepest prefix %d != blob size %d", file, got, len(b))
		}
		// Advertised bounds tighten monotonically to the full bound.
		for l := 1; l < spec.Levels; l++ {
			if spec.Bound(l, 0.05) >= spec.Bound(l-1, 0.05) {
				t.Errorf("%s: bound(%d)=%g not tighter than bound(%d)=%g",
					file, l, spec.Bound(l, 0.05), l-1, spec.Bound(l-1, 0.05))
			}
		}
		if spec.Bound(spec.Levels-1, 0.05) != 0.05 {
			t.Errorf("%s: deepest bound %g, spec says it collapses to the full bound", file, spec.Bound(spec.Levels-1, 0.05))
		}
	}
	// A freshly written archive is version 2: payloads at offset 5, then
	// manifest, then the 20-byte trailer ending in "CF3T", with the
	// documented size equation holding.
	target, anchors := goldenDataset()
	res, err := crossfield.CompressDataset([]crossfield.FieldSpec{
		{Field: anchors[0]}, {Field: anchors[1]}, {Field: anchors[2]}, {Field: target},
	}, crossfield.Rel(1e-3))
	if err != nil {
		t.Fatal(err)
	}
	blob := res.Blob
	if string(blob[:4]) != "CFC3" || blob[4] != 2 {
		t.Fatalf("streamed archive header = %q v%d, spec says CFC3 v2", blob[:4], blob[4])
	}
	tr := blob[len(blob)-20:]
	if string(tr[16:]) != "CF3T" {
		t.Fatalf("trailer magic = %q, spec says CF3T", tr[16:])
	}
	manOff := binary.LittleEndian.Uint64(tr[0:])
	manLen := binary.LittleEndian.Uint32(tr[8:])
	if manOff+uint64(manLen)+20 != uint64(len(blob)) {
		t.Fatalf("trailer geometry %d+%d+20 != blob size %d", manOff, manLen, len(blob))
	}
}

// TestGoldenFixturesCommitted fails fast with a helpful message when the
// fixture directory is missing entirely (e.g. a partial checkout).
func TestGoldenFixturesCommitted(t *testing.T) {
	if *update {
		t.Skip("regenerating")
	}
	entries, err := os.ReadDir(goldenDir)
	if err != nil || len(entries) == 0 {
		t.Fatalf("testdata/golden missing or empty (err=%v): run `go test -run TestGolden -update` and commit the fixtures", err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	for _, want := range []string{
		"baseline_cfc1.cfc", "baseline_cfc1v2.cfc", "baseline_cfc1v3.cfc", "baseline_cfc1.f32",
		"chunked_cfc2v1.cfc", "chunked_cfc2v2.cfc", "chunked_cfc2v3.cfc", "chunked_cfc2v4.cfc", "chunked_cfc2.f32",
		"archive_cfc3.cfc", "archive_cfc3v3.cfc", "archive_cfc3_blocks.cfc",
		"archive_cfc3_U.f32", "archive_cfc3_V.f32", "archive_cfc3_PRES.f32", "archive_cfc3_W.f32",
		"baseline_cfc1v3_level0.f32", "baseline_cfc1v3_level1.f32",
		"chunked_cfc2v4_level0.f32", "chunked_cfc2v4_level1.f32",
		"archive_cfc3v3_W_level0.f32", "archive_cfc3v3_W_level1.f32",
		"archive2d_cfc3.cfc", "archive2d_cfc3_CLDLOW.f32", "archive2d_cfc3_CLDMED.f32",
		"archive2d_cfc3_CLDHGH.f32", "archive2d_cfc3_CLDTOT.f32",
		"archive_cfc3_W_diffs.f32", "archive2d_cfc3_CLDTOT_diffs.f32",
	} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("fixture %s missing (have %v)", want, names)
		}
	}
}
