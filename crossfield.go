// Package crossfield is a Go implementation of cross-field-enhanced
// error-bounded lossy compression for scientific data, reproducing
// "Enhancing Lossy Compression Through Cross-Field Information for
// Scientific Applications" (SC 2024, arXiv:2409.18295).
//
// The package compresses floating-point scientific fields with a strict
// (absolute or value-range-relative) error bound. Two pipelines are
// provided:
//
//   - Baseline: SZ3-style Lorenzo prediction with dual quantization,
//     canonical Huffman coding, and a DEFLATE lossless stage.
//   - Cross-field hybrid: a compact CNN (CFNN) predicts the target field's
//     first-order backward differences from correlated anchor fields; a
//     learned hybrid model fuses those with the Lorenzo prediction,
//     concentrating the quantization-code distribution and improving the
//     compression ratio at the same error bound.
//
// Quickstart (single field):
//
//	target := crossfield.MustNewField("W", wData, 32, 192, 192)
//	anchors := []*crossfield.Field{u, v, pres}
//	codec, _ := crossfield.Train(target, anchors, crossfield.DefaultTraining())
//	res, _ := codec.Compress(target, anchors, crossfield.Rel(1e-3))
//	back, _ := codec.Decompress(res.Blob, anchors)
//
// At this level, anchors must be available at decompression time; compress
// them first with CompressBaseline at the same bound and feed the
// *decompressed* anchors to both Compress and Decompress.
//
// # Dataset archives
//
// Real scientific workflows compress whole multi-variable snapshots, so the
// preferred unit of compression is the dataset: CompressDataset packs every
// field of a snapshot into one CFC3 archive whose manifest records each
// field's role (anchor vs dependent) and anchor dependencies. Anchors are
// baseline-compressed first, dependents hybrid-compressed against the
// *decompressed* anchors, and OpenArchive topologically orders
// decompression — callers never touch anchors again:
//
//	arch, _ := crossfield.CompressDataset([]crossfield.FieldSpec{
//	    {Field: u}, {Field: v}, {Field: pres},
//	    {Field: w, Codec: codec}, // hybrid, anchored on U, V, PRES
//	}, crossfield.Rel(1e-3),
//	    crossfield.WithFieldBound("PRES", crossfield.Rel(1e-4)))
//	ar, _ := crossfield.OpenArchive(arch.Blob)
//	w2, _ := ar.Field("W") // anchors rebuilt internally, in order
//
// # Streaming
//
// Multi-GB snapshots never need to be resident: CompressDatasetTo streams
// the archive to an io.Writer as payloads are produced (footprint bounded
// by one field's compressed payload plus the anchor reconstructions), and
// OpenArchiveReader opens an archive through an io.ReaderAt — an *os.File
// or an mmap — reading only the manifest up front and payloads on demand:
//
//	f, _ := os.Create("snapshot.cfc")
//	stats, _ := crossfield.CompressDatasetTo(f, specs, crossfield.Rel(1e-3),
//	    crossfield.WithChunks(1<<20))
//	f.Close()
//
//	r, _ := os.Open("snapshot.cfc")
//	fi, _ := r.Stat()
//	ar, _ := crossfield.OpenArchiveReader(r, fi.Size()) // manifest only
//	w2, _ := ar.Field("W")                              // payloads read on demand
//
// The byte-level container formats are specified in docs/FORMATS.md, and
// cmd/cfserve serves archives (including larger-than-RAM, file-backed
// mounts) over HTTP.
//
// # Options
//
// Compression entry points take functional options. WithChunks and
// WithWorkers select the chunked parallel engine: the field is split into
// independent slabs along its slowest axis, each chunk runs the full
// pipeline concurrently on a worker pool, and the result is a
// random-access CFC2 container (shared header and CFNN model stored once,
// then a chunk index and per-chunk payloads):
//
//	res, _ := crossfield.CompressBaseline(f, crossfield.Rel(1e-3),
//	    crossfield.WithChunks(1<<20), crossfield.WithWorkers(8))
//	n, _ := crossfield.ChunkCount(res.Blob)
//	part, start, _ := crossfield.DecompressChunk("W", res.Blob, 2, nil)
//
// Every decode route is one call, Decode, whose DecodeRequest picks the
// chunk (or Whole), the level, whole or slab anchors and the worker
// bound; Decompress and DecompressChunk are its full-fidelity shorthands:
//
//	prev, _, achieved, _ := crossfield.Decode(ctx, "W", res.Blob,
//	    crossfield.DecodeRequest{Chunk: crossfield.Whole, Level: 0})
//
// The legacy ChunkOptions struct still satisfies Option, so pre-existing
// call sites keep compiling; new code should use the With* options.
// Decompress accepts every container format transparently (monolithic
// CFC1, chunked CFC2), and chunk seams honor the same error bound as the
// monolithic pipeline (the bound is resolved once over the full field).
package crossfield

import (
	"bytes"
	"context"
	"fmt"

	"repro/internal/cfnn"
	"repro/internal/core"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// Field is a named scientific variable: a dense row-major float32 array
// with 1-3 dimensions (slowest axis first, SDRBench convention).
type Field struct {
	Name string
	t    *tensor.Tensor
}

// NewField wraps data (not copied) with the given dimensions.
func NewField(name string, data []float32, dims ...int) (*Field, error) {
	t, err := tensor.FromSlice(data, dims...)
	if err != nil {
		return nil, err
	}
	return &Field{Name: name, t: t}, nil
}

// MustNewField is NewField panicking on error, for statically-correct
// shapes.
func MustNewField(name string, data []float32, dims ...int) *Field {
	f, err := NewField(name, data, dims...)
	if err != nil {
		panic(err)
	}
	return f
}

// Dims returns the field's dimensions.
func (f *Field) Dims() []int { return f.t.Shape() }

// Data returns the underlying values (shared, not copied).
func (f *Field) Data() []float32 { return f.t.Data() }

// Len returns the number of values.
func (f *Field) Len() int { return f.t.Len() }

// Tensor exposes the underlying tensor for intra-module use (examples,
// benches).
func (f *Field) Tensor() *tensor.Tensor { return f.t }

// ErrorBound is a user-facing error bound.
type ErrorBound = quant.Bound

// Abs returns an absolute error bound.
func Abs(v float64) ErrorBound { return quant.AbsBound(v) }

// Rel returns a value-range-relative error bound (e.g. 1e-3, as in the
// paper's Table II).
func Rel(v float64) ErrorBound { return quant.RelBound(v) }

// Stats reports the outcome of one field's compression (sizes, ratio,
// bound, achieved max error, entropy).
type Stats = core.Stats

// Compressed is the outcome of a compression: the self-contained blob and
// its statistics.
type Compressed struct {
	Blob  []byte
	Stats Stats
}

// CompressBaseline compresses a field with the Lorenzo + dual-quantization
// baseline (no anchors needed to decompress). WithChunks/WithWorkers
// produce a chunked random-access CFC2 container instead of a monolithic
// blob.
func CompressBaseline(f *Field, bound ErrorBound, opts ...Option) (*Compressed, error) {
	cfg, err := resolveOptions("CompressBaseline", opts, false)
	if err != nil {
		return nil, err
	}
	return cfg.compress(f.t, core.EncodeRequest{Bound: bound})
}

// Decompress reconstructs a field from a blob. Baseline blobs take nil
// anchors; cross-field blobs need the same decompressed anchors used at
// compression time, in the same order. Monolithic CFC1 blobs and chunked
// CFC2 containers are both accepted.
func Decompress(name string, blob []byte, anchors []*Field) (*Field, error) {
	t, err := core.Decompress(blob, fieldTensors(anchors))
	if err != nil {
		return nil, err
	}
	return &Field{Name: name, t: t}, nil
}

// ChunkCount returns how many independently decodable chunks a blob holds
// (1 for a monolithic CFC1 blob).
func ChunkCount(blob []byte) (int, error) { return core.ChunkCount(blob) }

// LevelSpec describes the progressive layering of a compressed payload:
// level count, total refinement bits, and per-plane widths. Use Bound for
// each level's provable error bound and ResolveLevel to pick the cheapest
// level meeting a requested bound. Non-progressive payloads report one
// level.
type LevelSpec = core.LevelSpec

// LevelFull selects the deepest (bit-exact) level in a DecodeRequest.
const LevelFull = core.LevelFull

// ErrLayerChecksum reports a progressive layer whose payload bytes fail
// their recorded CRC. Layers verify independently: a corrupt refinement
// plane still leaves every level below it decodable.
var ErrLayerChecksum = core.ErrLayerChecksum

// PayloadLevels inspects a compressed blob's progressive layering without
// decoding any payload data. Non-progressive blobs report Levels == 1.
func PayloadLevels(blob []byte) (*LevelSpec, error) {
	return core.PayloadLevelSpecReader(bytes.NewReader(blob), int64(len(blob)))
}

// PayloadLevelBytes reports, per level, how many compressed bytes a
// prefix reader must fetch to reconstruct levels 0..l of a layered blob
// (summed over chunks for chunked payloads, headers included). The last
// entry equals len(blob); non-layered blobs report that single entry.
func PayloadLevelBytes(blob []byte) ([]int64, error) { return core.PayloadLevelBytes(blob) }

// Whole is the DecodeRequest.Chunk that selects every chunk of a blob.
const Whole = core.Whole

// DecodeRequest selects what Decode reconstructs from a blob.
type DecodeRequest struct {
	// Chunk is Whole, or the index of the one chunk to decode without
	// reading any other chunk's payload; a monolithic CFC1 blob is
	// chunk 0.
	Chunk int
	// Level is LevelFull for the bit-exact reconstruction, or a preview
	// level of a layered blob: 0 is the base (coarsest) layer, and only
	// the layers the level needs are read and CRC-verified. A non-layered
	// blob decodes in full at level 0 and has no other level.
	Level int
	// Anchors are the decompressed anchor fields a cross-field blob
	// predicts from, in the order used at compression time; nil for a
	// baseline blob.
	Anchors []*Field
	// Slabs marks anchors that cover only the chunk's slab range, each
	// with the chunk's dims (the field dims with axis 0 cut to the chunk's
	// slab count), instead of whole fields. The reconstruction is
	// bit-identical either way — random access consults exactly that
	// region — which is what lets serving layers answer a dependent-chunk
	// request by decoding only the anchor chunks it touches.
	Slabs bool
	// Workers bounds the decode pool (chunks of a whole decode, then
	// blocks and refinement planes inside each chunk); <= 0 means
	// GOMAXPROCS. The result is byte-identical at any worker count.
	Workers int
}

// Decode is the one decode call behind every library route: a whole
// field or one chunk, at full fidelity or at a preview level, with whole
// or slab anchors, on a bounded worker pool. It returns the field named
// name, its starting slab along axis 0 (rows for 2D, z-planes for 3D; 0
// for Whole), and the achieved max error the compressor recorded for the
// level (NaN for non-layered blobs). The full level is bit-identical to
// Decompress of the same blob. Decoding checks ctx at chunk, block and
// wavefront-front boundaries, so a request whose client has gone away
// stops at the next boundary and returns ctx.Err().
func Decode(ctx context.Context, name string, blob []byte, req DecodeRequest) (*Field, int, float64, error) {
	t, start, achieved, err := core.Decode(ctx, bytes.NewReader(blob), int64(len(blob)), core.Request{
		Chunk:   req.Chunk,
		Level:   req.Level,
		Anchors: fieldTensors(req.Anchors),
		Slabs:   req.Slabs,
		Workers: req.Workers,
	})
	if err != nil {
		return nil, 0, 0, err
	}
	return &Field{Name: name, t: t}, start, achieved, nil
}

// DecompressChunk reconstructs only chunk i of a chunked CFC2 container,
// without reading any other chunk's payload. It returns the chunk field
// and its starting index along axis 0 (in slabs: rows for 2D, z-planes for
// 3D). Hybrid containers need the same full-field decompressed anchors
// used at compression time; only the chunk's region of them is consulted.
func DecompressChunk(name string, blob []byte, i int, anchors []*Field) (*Field, int, error) {
	f, start, _, err := Decode(context.Background(), name, blob, DecodeRequest{Chunk: i, Level: LevelFull, Anchors: anchors})
	return f, start, err
}

// Training configures CFNN training.
type Training struct {
	// Features is the CFNN width; 0 picks a fast single-CPU default.
	Features int
	// Epochs / StepsPerEpoch / Batch control the training budget.
	Epochs, StepsPerEpoch, Batch int
	// Patch dims (PatchD ignored for 2D fields).
	PatchD, PatchH, PatchW int
	// LR is the Adam learning rate (0 = default).
	LR float64
	// Seed makes training deterministic.
	Seed int64
}

// DefaultTraining returns a budget suitable for single-CPU runs.
func DefaultTraining() Training { return Training{} }

// Codec is a trained cross-field compressor for one target field family.
type Codec struct {
	model  *cfnn.Model
	rank   int
	names  []string
	losses []float64
}

// Train fits a CFNN for predicting target from anchors (all fields must
// share a 2D or 3D shape). Training uses the original field values, so one
// codec serves every error bound.
func Train(target *Field, anchors []*Field, tr Training) (*Codec, error) {
	if len(anchors) == 0 {
		return nil, fmt.Errorf("crossfield: need at least one anchor")
	}
	rank := target.t.Rank()
	cfg := cfnn.FastConfig(rank, len(anchors))
	if tr.Features > 0 {
		cfg.Features = tr.Features
	}
	cfg.Seed = tr.Seed
	m, err := cfnn.New(cfg)
	if err != nil {
		return nil, err
	}
	losses, err := m.Train(fieldTensors(anchors), target.t, cfnn.TrainConfig{
		Epochs: tr.Epochs, StepsPerEpoch: tr.StepsPerEpoch, Batch: tr.Batch,
		PatchD: tr.PatchD, PatchH: tr.PatchH, PatchW: tr.PatchW,
		LR: tr.LR, Seed: tr.Seed + 1,
	})
	if err != nil {
		return nil, err
	}
	names := make([]string, len(anchors))
	for i, a := range anchors {
		names[i] = a.Name
	}
	return &Codec{model: m, rank: rank, names: names, losses: losses}, nil
}

// TrainingLosses returns the per-epoch CFNN training losses (Figure 5's
// left panel).
func (c *Codec) TrainingLosses() []float64 { return append([]float64(nil), c.losses...) }

// ModelParams returns the CFNN's learnable-parameter count.
func (c *Codec) ModelParams() int { return c.model.ParamCount() }

// ModelBytes returns the serialized model size charged to every compressed
// blob.
func (c *Codec) ModelBytes() int { return c.model.SizeBytes() }

// Model exposes the underlying CFNN for intra-module use.
func (c *Codec) Model() *cfnn.Model { return c.model }

// Compress runs the hybrid cross-field pipeline. anchors must be the
// *decompressed* anchor fields (compress them with CompressBaseline at the
// same bound first) — or use CompressDataset, which manages the anchor
// lifecycle for you. WithChunks/WithWorkers produce a chunked
// random-access CFC2 container whose chunks compress in parallel and share
// one stored copy of the CFNN model.
func (c *Codec) Compress(target *Field, anchors []*Field, bound ErrorBound, opts ...Option) (*Compressed, error) {
	cfg, err := resolveOptions("Codec.Compress", opts, false)
	if err != nil {
		return nil, err
	}
	return cfg.compress(target.t, core.EncodeRequest{
		Bound:       bound,
		Model:       c.model,
		Anchors:     fieldTensors(anchors),
		AnchorNames: c.names,
	})
}

// Decompress reconstructs a hybrid-compressed field.
func (c *Codec) Decompress(blob []byte, anchors []*Field) (*Field, error) {
	return Decompress("", blob, anchors)
}

// Verify checks |orig − recon| against the blob's absolute error bound.
func Verify(orig, recon *Field, ebAbs float64) (maxErr float64, ok bool, err error) {
	return core.VerifyBound(orig.t, recon.t, ebAbs)
}

func fieldTensors(fs []*Field) []*tensor.Tensor {
	if len(fs) == 0 {
		return nil
	}
	ts := make([]*tensor.Tensor, len(fs))
	for i, f := range fs {
		ts[i] = f.t
	}
	return ts
}
