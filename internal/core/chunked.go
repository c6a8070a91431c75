package core

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"slices"

	"repro/internal/cfnn"
	"repro/internal/chunk"
	"repro/internal/container"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// ChunkedOptions configures the chunked compression engine.
type ChunkedOptions struct {
	Options
	// ChunkVoxels is the target number of values per chunk; 0 selects
	// chunk.DefaultChunkVoxels. Chunks are slabs along the slowest axis,
	// so the realized size is rounded to whole slabs (minimum one).
	// Negative values are rejected with an error.
	ChunkVoxels int
	// Workers bounds how many chunks are compressed concurrently;
	// 0 means parallel.Workers() (GOMAXPROCS). Negative values are
	// rejected with an error. The decompression side takes its bound in
	// Request.Workers.
	Workers int
}

// validate rejects option values that would otherwise be silently treated
// as defaults — a negative count is always a caller bug.
func (o ChunkedOptions) validate() error {
	if o.ChunkVoxels < 0 {
		return fmt.Errorf("core: ChunkVoxels must be >= 0 (0 = default), got %d", o.ChunkVoxels)
	}
	if o.Workers < 0 {
		return fmt.Errorf("core: Workers must be >= 0 (0 = GOMAXPROCS), got %d", o.Workers)
	}
	return nil
}

func (o ChunkedOptions) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return parallel.Workers()
}

// CompressChunked compresses a field into a chunked CFC2 container. A nil
// model selects the Lorenzo baseline (anchors ignored); a trained model
// selects the hybrid cross-field pipeline, with anchors being the
// *decompressed* anchor fields, as for CompressHybrid.
//
// The error bound is resolved once over the full field, so every chunk —
// and therefore every point, including chunk seams — honors the same
// absolute bound the monolithic pipeline would. Each chunk then runs the
// full predict→quantize→Huffman→lossless pipeline independently on a
// bounded worker pool: dual quantization leaves no read-after-write hazard
// between chunks, which is what makes both sides embarrassingly parallel
// and every chunk independently decodable.
func CompressChunked(field *tensor.Tensor, model *cfnn.Model, anchors []*tensor.Tensor, opts ChunkedOptions) (*Result, error) {
	var buf bytes.Buffer
	st, err := CompressChunkedTo(&buf, field, model, anchors, opts)
	if err != nil {
		return nil, err
	}
	return &Result{Blob: buf.Bytes(), Stats: *st}, nil
}

// CompressChunkedTo is CompressChunked streaming the container to w:
// header and chunk index first, then the per-chunk payloads. Only the
// compressed payloads are ever resident, never a second copy of the raw
// field, so multi-GB fields stream through a bounded footprint.
func CompressChunkedTo(w io.Writer, field *tensor.Tensor, model *cfnn.Model, anchors []*tensor.Tensor, opts ChunkedOptions) (*Stats, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	opts.Options = opts.Options.withDefaults()
	// Resolve the layer plan once so every chunk worker shares identical
	// layer geometry (and bad progressive options fail before any work).
	if err := opts.Options.resolveProg(); err != nil {
		return nil, err
	}
	method := container.MethodBaseline
	if model != nil {
		method = container.MethodHybrid
		if field.Rank() != 2 && field.Rank() != 3 {
			return nil, fmt.Errorf("core: cross-field compression needs rank 2 or 3, got %d", field.Rank())
		}
		if len(anchors) == 0 {
			return nil, fmt.Errorf("core: chunked hybrid compression needs anchors")
		}
		for i, a := range anchors {
			if !a.SameShape(field) {
				return nil, fmt.Errorf("core: anchor %d shape %v != field shape %v", i, a.Shape(), field.Shape())
			}
		}
	}
	eb, err := resolveEB(field, opts.Bound)
	if err != nil {
		return nil, err
	}
	g, err := chunk.Plan(field.Shape(), opts.ChunkVoxels)
	if err != nil {
		return nil, err
	}
	n := g.NumChunks()
	payloads := make([][]byte, n)
	chunkStats := make([]Stats, n)
	// Anchor names live once in the CFC2 header; keep them out of every
	// per-chunk payload. The arena is scratch for the single shared
	// inference pass below, never for the concurrent chunk workers.
	chunkOpts := opts.Options
	chunkOpts.AnchorNames = nil
	chunkOpts.Arena = nil
	// Shared-inference stage: one segmented CFNN pass over the full anchor
	// set (segment = chunk slab, so every chunk's predictions are
	// bit-identical to per-chunk inference) replaces N per-chunk passes on
	// N model clones. Workers below receive read-only slab views.
	var inf *fieldInference
	if model != nil {
		endInfer := opts.Stages.Timer("inference")
		inf, err = newFieldInference(model, anchors, eb, g, opts.Arena, opts.workers())
		endInfer()
		if err != nil {
			return nil, err
		}
	}
	err = parallel.ForErr(opts.workers(), n, func(i int) error {
		sub, err := g.View(field, i)
		if err != nil {
			return err
		}
		res, err := compressCrossFieldDQ(sub, inf.chunkDQ(i), nil, chunkOpts, method, eb)
		if err != nil {
			return fmt.Errorf("core: chunk %d: %w", i, err)
		}
		payloads[i] = res.Blob
		chunkStats[i] = res.Stats
		return nil
	})
	if err != nil {
		return nil, err
	}
	var modelBlob []byte
	if model != nil {
		var mb bytes.Buffer
		if err := model.Save(&mb); err != nil {
			return nil, err
		}
		modelBlob = mb.Bytes()
	}
	hdr := &chunk.Header{
		Method:     method,
		BoundMode:  byte(opts.Bound.Mode),
		BoundValue: opts.Bound.Value,
		AbsEB:      eb,
		Dims:       append([]int(nil), field.Shape()...),
		Anchors:    append([]string(nil), opts.AnchorNames...),
		Model:      modelBlob,
		Layered:    opts.Options.prog != nil,
	}
	maxErrs := make([]float64, n)
	for i, cs := range chunkStats {
		maxErrs[i] = cs.MaxErr
	}
	total, err := chunk.EncodeTo(w, hdr, g, payloads, maxErrs)
	if err != nil {
		return nil, err
	}
	st := aggregateChunkStats(field, chunkStats, method, eb, total, len(modelBlob))
	return &st, nil
}

// aggregateChunkStats folds per-chunk stats into one field-level Stats.
func aggregateChunkStats(field *tensor.Tensor, chunkStats []Stats, method container.Method, eb float64, totalBytes, modelBytes int) Stats {
	st := Stats{
		Method:          method,
		OriginalBytes:   field.Len() * 4,
		CompressedBytes: totalBytes,
		ModelBytes:      modelBytes,
		AbsEB:           eb,
	}
	var entropy float64
	for _, cs := range chunkStats {
		st.TableBytes += cs.TableBytes
		st.PayloadBytes += cs.PayloadBytes
		entropy += float64(cs.CodeEntropy * float64(cs.OriginalBytes))
		if cs.MaxErr > st.MaxErr {
			st.MaxErr = cs.MaxErr
		}
	}
	if st.OriginalBytes > 0 {
		st.CodeEntropy = entropy / float64(st.OriginalBytes)
	}
	st.Ratio = metrics.CompressionRatio(st.OriginalBytes, totalBytes)
	st.BitRate = metrics.BitRate(field.Len(), totalBytes)
	return st
}

// decodeContainer is Decode over a CFC2 container: it parses the index
// through r, checks the anchors against the container (before the model
// is loaded, so a request that cannot decode never pays for or trusts the
// stored model), and decodes req.Chunk, or every chunk for Whole, through
// decodeChunks. Each chunk's payload is read through readPayload under its
// index checksum and checked against the grid's chunk dims before it
// decodes into its region of the output.
func decodeContainer(ctx context.Context, r io.ReaderAt, size int64, req Request) (*tensor.Tensor, int, float64, error) {
	cr, err := chunk.NewReader(r, size)
	if err != nil {
		return nil, 0, 0, err
	}
	a := &chunk.Archive{Header: *cr.Header(), Index: cr.Index()}
	lo, hi := 0, a.NumChunks()
	if req.Chunk != Whole {
		if req.Chunk < 0 || req.Chunk >= a.NumChunks() {
			return nil, 0, 0, fmt.Errorf("core: chunk %d out of [0,%d)", req.Chunk, a.NumChunks())
		}
		lo, hi = req.Chunk, req.Chunk+1
	}
	g, err := a.Grid()
	if err != nil {
		return nil, 0, 0, err
	}
	slabs := req.Chunk != Whole && req.Slabs
	if crossField(a.Method) {
		dims := a.Dims
		if slabs {
			dims = g.ChunkDims(req.Chunk)
		}
		if err := checkAnchors(&a.Header, req.Anchors, dims); err != nil {
			return nil, 0, 0, err
		}
	}
	model, err := loadArchiveModel(&a.Header)
	if err != nil {
		return nil, 0, 0, err
	}
	decode := func(i int, out []float32, arena *nn.Arena, workers int) ([]float32, float64, error) {
		e := a.Index[i]
		b, err := readPayload(r, int64(e.Offset), int64(e.PayloadLen), req.Level, &e.Checksum)
		if err != nil {
			return nil, 0, fmt.Errorf("core: chunk %d: %w", i, err)
		}
		if !slices.Equal(b.Dims, g.ChunkDims(i)) {
			return nil, 0, fmt.Errorf("core: chunk %d payload dims %v, index says %v", i, b.Dims, g.ChunkDims(i))
		}
		anchors := req.Anchors
		if crossField(a.Method) && !slabs {
			if anchors, err = g.Views(anchors, i); err != nil {
				return nil, 0, err
			}
		}
		out, ach, err := decodePayload(ctx, b, req.Level, anchors, model, arena, out, workers)
		if err != nil {
			return nil, 0, fmt.Errorf("core: chunk %d: %w", i, err)
		}
		return out, ach, nil
	}
	t, achieved, err := decodeChunks(ctx, g, lo, hi, req.Workers, decode)
	if err != nil {
		return nil, 0, 0, err
	}
	return t, a.Index[lo].Start, achieved, nil
}

// decodeChunks is the one chunk loop: decode reconstructs chunk i of
// [lo, hi) into out, its region of one output over their slabs (nil for a
// lone chunk: allocated once its payload parses), running its CFNN
// inference in arena on workers kernel workers. At most min(workers,
// chunks) chunks are in flight, each in-flight worker reusing one arena
// for the call; leftover workers go to each chunk's kernels and blocks.
// ctx is checked before every chunk and at its block and front boundaries.
func decodeChunks(ctx context.Context, g *chunk.Grid, lo, hi, workers int, decode func(i int, out []float32, arena *nn.Arena, workers int) ([]float32, float64, error)) (*tensor.Tensor, float64, error) {
	n := hi - lo
	inFlight := min(workers, n)
	arenas := make(chan *nn.Arena, inFlight)
	for range inFlight {
		arenas <- nn.NewArena()
	}
	base := g.Offset(lo)
	var out []float32
	if n > 1 {
		out = make([]float32, g.Offset(hi-1)+g.Voxels(hi-1)-base)
	}
	achieved := make([]float64, n)
	err := parallel.ForErr(inFlight, n, func(k int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		arena := <-arenas
		defer func() { arenas <- arena }()
		i := lo + k
		var dst []float32
		if n > 1 {
			dst = out[g.Offset(i)-base : g.Offset(i)-base+g.Voxels(i)]
		}
		vals, ach, err := decode(i, dst, arena, max(1, workers/inFlight))
		if n == 1 {
			out = vals
		}
		achieved[k] = ach
		return err
	})
	if err != nil {
		return nil, 0, err
	}
	dims := slices.Clone(g.Dims())
	dims[0] = g.Start(hi-1) + g.Count(hi-1) - g.Start(lo)
	t, err := tensor.FromSlice(out, dims...)
	if err != nil {
		return nil, 0, err
	}
	return t, maxAchieved(achieved), nil
}

// ChunkCount returns the number of chunks in a CFC2 container (1 for a
// monolithic CFC1 blob).
func ChunkCount(blob []byte) (int, error) {
	if !chunk.IsChunked(blob) {
		if _, err := container.Decode(blob); err != nil {
			return 0, err
		}
		return 1, nil
	}
	a, err := chunk.Decode(blob)
	if err != nil {
		return 0, err
	}
	return a.NumChunks(), nil
}

// ChunkInfo describes one chunk of a compressed blob as recorded in its
// index, without decompressing anything.
type ChunkInfo struct {
	Start        int     // first slab along axis 0
	Slabs        int     // slab count along axis 0
	Voxels       int     // values in the chunk
	RawBytes     int     // uncompressed size (voxels × 4)
	PayloadBytes int     // compressed payload length
	MaxErr       float64 // achieved max abs error; NaN when unknown
}

// ChunkIndex returns per-chunk metadata for a blob. A monolithic CFC1
// blob reports a single chunk covering the whole field (its payload
// charged the full blob size), so callers can treat every container
// format as chunked.
func ChunkIndex(blob []byte) ([]ChunkInfo, error) {
	if !chunk.IsChunked(blob) {
		b, err := container.Decode(blob)
		if err != nil {
			return nil, err
		}
		n := b.NumPoints()
		return []ChunkInfo{{
			Start:        0,
			Slabs:        b.Dims[0],
			Voxels:       n,
			RawBytes:     n * 4,
			PayloadBytes: len(blob),
			MaxErr:       math.NaN(),
		}}, nil
	}
	a, err := chunk.Decode(blob)
	if err != nil {
		return nil, err
	}
	return ChunkInfoFromIndex(a.Dims, a.Index), nil
}

// ChunkInfoFromIndex converts a parsed CFC2 chunk index into ChunkInfo
// rows given the container dims. Serving layers use it to build a chunk
// table from a stream-parsed header (chunk.NewReader) without holding the
// container bytes.
func ChunkInfoFromIndex(dims []int, index []chunk.IndexEntry) []ChunkInfo {
	slab := 1
	for _, d := range dims[1:] {
		slab *= d
	}
	out := make([]ChunkInfo, len(index))
	for i, e := range index {
		out[i] = ChunkInfo{
			Start:        e.Start,
			Slabs:        e.Count,
			Voxels:       e.Count * slab,
			RawBytes:     e.RawBytes,
			PayloadBytes: e.PayloadLen,
			MaxErr:       e.MaxErr,
		}
	}
	return out
}

// loadArchiveModel loads the shared CFNN model out of a CFC2 header (nil
// for baseline containers), without validating any anchors.
func loadArchiveModel(h *chunk.Header) (*cfnn.Model, error) {
	switch h.Method {
	case container.MethodBaseline:
		return nil, nil
	case container.MethodHybrid, container.MethodCrossOnly:
		return cfnn.Load(h.Model)
	default:
		return nil, fmt.Errorf("core: unknown method %v", h.Method)
	}
}

// crossField reports whether a container method predicts from anchors.
func crossField(m container.Method) bool {
	return m == container.MethodHybrid || m == container.MethodCrossOnly
}

// checkAnchors rejects missing anchors, or anchors whose shape is not
// dims, for a hybrid container.
func checkAnchors(h *chunk.Header, anchors []*tensor.Tensor, dims []int) error {
	if len(anchors) == 0 {
		return fmt.Errorf("%w: method %v, anchors %v", ErrNeedAnchors, h.Method, h.Anchors)
	}
	for k, an := range anchors {
		if !slices.Equal(an.Shape(), dims) {
			return fmt.Errorf("core: anchor %d shape %v != dims %v", k, an.Shape(), dims)
		}
	}
	return nil
}
