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
	// rejected with an error. The decompression side takes its bound via
	// DecompressChunkedWith.
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

// DecompressChunked reconstructs a field from a CFC2 container, running
// the per-chunk reconstructions on a GOMAXPROCS-wide worker pool. Hybrid
// containers need the same decompressed anchors used at compression time.
func DecompressChunked(blob []byte, anchors []*tensor.Tensor) (*tensor.Tensor, error) {
	return DecompressChunkedWith(blob, anchors, 0)
}

// DecompressChunkedWith is DecompressChunked with an explicit bound on how
// many chunks decompress concurrently; workers <= 0 means
// parallel.Workers(). A monolithic CFC1 blob is accepted too (it has a
// single sequential chunk, so workers only bounds block-parallel decode).
func DecompressChunkedWith(blob []byte, anchors []*tensor.Tensor, workers int) (*tensor.Tensor, error) {
	t, _, err := decompressBlob(context.Background(), blob, anchors, LevelFull, workers)
	return t, err
}

// decompressBlob reconstructs a whole in-memory blob (CFC1 or CFC2) at
// level, returning the achieved max error recorded for the level. ctx
// cancels the decode at its next chunk, block or front boundary.
func decompressBlob(ctx context.Context, blob []byte, anchors []*tensor.Tensor, level, workers int) (*tensor.Tensor, float64, error) {
	if !chunk.IsChunked(blob) {
		b, err := parsePayload(blob, level)
		if err != nil {
			return nil, 0, err
		}
		return decodePayload(ctx, b, level, anchors, nil, nil, workers)
	}
	a, err := chunk.Decode(blob)
	if err != nil {
		return nil, 0, err
	}
	return decodeChunks(ctx, a, anchors, level, workers, func(i int) (*container.Blob, error) {
		return chunkPayload(a, i, level)
	})
}

// chunkPayload CRC-checks chunk i of an in-memory container and parses
// it for a decode at level.
func chunkPayload(a *chunk.Archive, i, level int) (*container.Blob, error) {
	p, err := a.Payload(i)
	if err != nil {
		return nil, err
	}
	b, err := parsePayload(p, level)
	if err != nil {
		return nil, fmt.Errorf("core: chunk %d: %w", i, err)
	}
	return b, nil
}

// decodeChunks is the one whole-container chunk loop: the shared CFNN
// inference runs once per field, then every chunk decodes in parallel
// into its region of the output, and the per-chunk achieved errors fold
// into the field's. payload yields chunk i's parsed payload at level —
// from the in-memory container, or read through an io.ReaderAt.
// Chunk-level parallelism comes first; leftover workers go to
// block-parallel decode inside each chunk. ctx is checked after the
// shared inference pass and before every chunk, and each chunk's decode
// checks it at its block and front boundaries.
func decodeChunks(ctx context.Context, a *chunk.Archive, anchors []*tensor.Tensor, level, workers int, payload func(i int) (*container.Blob, error)) (*tensor.Tensor, float64, error) {
	if workers <= 0 {
		workers = parallel.Workers()
	}
	g, model, err := prepareArchive(a, anchors)
	if err != nil {
		return nil, 0, err
	}
	inf, err := archiveInference(a, g, model, anchors, workers)
	if err != nil {
		return nil, 0, err
	}
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	inner := max(1, workers/a.NumChunks())
	out := make([]float32, a.NumPoints())
	achieved := make([]float64, a.NumChunks())
	err = parallel.ForErr(workers, a.NumChunks(), func(i int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		b, err := payload(i)
		if err != nil {
			return err
		}
		t, ach, err := decodeChunk(ctx, b, g, i, level, nil, nil, inf.chunkDQ(i), inner)
		if err != nil {
			return err
		}
		achieved[i] = ach
		copy(out[g.Offset(i):], t.Data())
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	t, err := tensor.FromSlice(out, a.Dims...)
	if err != nil {
		return nil, 0, err
	}
	return t, maxAchieved(achieved), nil
}

// decodeChunk reverses chunk i's parsed payload and checks its dims
// against the grid. Hybrid payloads take exactly one prediction source:
// dq slab views from the shared inference pass (whole-container decodes),
// or the chunk's anchor views plus the container model (random access).
func decodeChunk(ctx context.Context, b *container.Blob, g *chunk.Grid, i, level int, anchors []*tensor.Tensor, model *cfnn.Model, dq [][]float64, workers int) (*tensor.Tensor, float64, error) {
	t, ach, err := decodePayload(ctx, b, level, anchors, model, dq, workers)
	if err != nil {
		return nil, 0, fmt.Errorf("core: chunk %d: %w", i, err)
	}
	if !slices.Equal(t.Shape(), g.ChunkDims(i)) {
		return nil, 0, fmt.Errorf("core: chunk %d payload dims %v, index says %v", i, t.Shape(), g.ChunkDims(i))
	}
	return t, ach, nil
}

// archiveInference runs the container-level shared inference pass for a
// hybrid CFC2 archive (nil for baseline containers): the one place
// decompression still pays CFNN cost, once per field instead of once per
// chunk.
func archiveInference(a *chunk.Archive, g *chunk.Grid, model *cfnn.Model, anchors []*tensor.Tensor, workers int) (*fieldInference, error) {
	if model == nil {
		return nil, nil
	}
	return newFieldInference(model, anchors, a.AbsEB, g, nil, workers)
}

// DecompressChunkedFrom reconstructs a field from a CFC2 stream, handing
// each chunk payload to a decoder goroutine as soon as it is read — the
// compressed container never needs to be fully resident.
func DecompressChunkedFrom(r io.Reader, anchors []*tensor.Tensor) (*tensor.Tensor, error) {
	cr, err := chunk.NewReader(r)
	if err != nil {
		return nil, err
	}
	a := &chunk.Archive{Header: *cr.Header(), Index: cr.Index()}
	g, model, err := prepareArchive(a, anchors)
	if err != nil {
		return nil, err
	}
	workers := parallel.Workers()
	inf, err := archiveInference(a, g, model, anchors, workers)
	if err != nil {
		return nil, err
	}
	out := make([]float32, a.NumPoints())
	sem := make(chan struct{}, workers)
	errs := make([]error, a.NumChunks())
	for {
		i, payload, err := cr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			// Drain in-flight workers before reporting the stream error.
			for w := 0; w < workers; w++ {
				sem <- struct{}{}
			}
			return nil, err
		}
		sem <- struct{}{}
		go func(i int, payload []byte) {
			defer func() { <-sem }()
			b, err := parsePayload(payload, LevelFull)
			if err == nil {
				var t *tensor.Tensor
				if t, _, err = decodeChunk(context.Background(), b, g, i, LevelFull, nil, nil, inf.chunkDQ(i), 1); err == nil {
					copy(out[g.Offset(i):], t.Data())
				}
			}
			errs[i] = err
		}(i, payload)
	}
	for w := 0; w < workers; w++ {
		sem <- struct{}{}
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return tensor.FromSlice(out, a.Dims...)
}

// DecompressChunk reconstructs only chunk i of a CFC2 container without
// reading any other chunk's payload, returning the chunk tensor and its
// starting slab along axis 0 (multiply by the slab voxel count for the
// flat offset). Hybrid containers need the full-field decompressed
// anchors; only the chunk's region of them is consulted — this is the
// per-chunk-view inference path the shared-inference engine is
// bit-identical to. A monolithic CFC1 blob is accepted as a single-chunk
// container: chunk 0 is the whole field, consistent with ChunkCount and
// ChunkIndex. Block-coded payloads decode on a GOMAXPROCS-wide worker
// pool; use DecompressChunkWith for an explicit bound.
func DecompressChunk(blob []byte, i int, anchors []*tensor.Tensor) (*tensor.Tensor, int, error) {
	return DecompressChunkWith(blob, i, anchors, 0)
}

// DecompressChunkWith is DecompressChunk with an explicit bound on the
// decode worker pool (blocks of block-coded CFC2 v3 payloads, refinement
// planes of layered ones); workers <= 0 means parallel.Workers(). A plain
// payload is one block and decodes on one worker regardless — the bound
// only governs intra-chunk parallelism, which is the single-chunk
// decode-latency lever.
func DecompressChunkWith(blob []byte, i int, anchors []*tensor.Tensor, workers int) (*tensor.Tensor, int, error) {
	t, start, _, err := decompressChunk(context.Background(), blob, i, LevelFull, anchors, true, workers)
	return t, start, err
}

// decompressChunk is the one single-chunk path: it decodes only chunk i
// at level, returning the chunk, its starting slab along axis 0, and the
// achieved max error recorded for the level. With whole set, anchors are
// full anchor fields and only chunk i's views of them are consulted;
// otherwise they are slabs covering just chunk i's range, each with the
// chunk's dims — the serving layer's form, which never materializes whole
// anchors. Both give bit-identical predictions: inference runs over
// exactly the same chunk region. A monolithic CFC1 blob is a single
// chunk spanning every slab. ctx cancels the decode at its next block or
// front boundary.
func decompressChunk(ctx context.Context, blob []byte, i, level int, anchors []*tensor.Tensor, whole bool, workers int) (*tensor.Tensor, int, float64, error) {
	if !chunk.IsChunked(blob) {
		if i != 0 {
			return nil, 0, 0, fmt.Errorf("core: chunk %d out of [0,1) (monolithic blob)", i)
		}
		b, err := parsePayload(blob, level)
		if err != nil {
			return nil, 0, 0, err
		}
		t, ach, err := decodePayload(ctx, b, level, anchors, nil, nil, workers)
		return t, 0, ach, err
	}
	a, err := chunk.Decode(blob)
	if err != nil {
		return nil, 0, 0, err
	}
	if i < 0 || i >= a.NumChunks() {
		return nil, 0, 0, fmt.Errorf("core: chunk %d out of [0,%d)", i, a.NumChunks())
	}
	g, err := a.Grid()
	if err != nil {
		return nil, 0, 0, err
	}
	if crossField(a.Method) {
		if whole {
			if err := checkAnchors(&a.Header, anchors, a.Dims); err != nil {
				return nil, 0, 0, err
			}
			if anchors, err = g.Views(anchors, i); err != nil {
				return nil, 0, 0, err
			}
		}
		if err := checkAnchors(&a.Header, anchors, g.ChunkDims(i)); err != nil {
			return nil, 0, 0, err
		}
	}
	model, err := loadArchiveModel(&a.Header)
	if err != nil {
		return nil, 0, 0, err
	}
	b, err := chunkPayload(a, i, level)
	if err != nil {
		return nil, 0, 0, err
	}
	t, ach, err := decodeChunk(ctx, b, g, i, level, anchors, model, nil, workers)
	if err != nil {
		return nil, 0, 0, err
	}
	return t, a.Index[i].Start, ach, nil
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

// prepareArchive validates anchors against the container header, loads the
// shared CFNN model (if any), and rebuilds the chunk grid. Anchors are
// checked before the model is loaded, so a request that cannot decode
// never pays for (or trusts) the stored model.
func prepareArchive(a *chunk.Archive, anchors []*tensor.Tensor) (*chunk.Grid, *cfnn.Model, error) {
	g, err := a.Grid()
	if err != nil {
		return nil, nil, err
	}
	if crossField(a.Method) {
		if err := checkAnchors(&a.Header, anchors, a.Dims); err != nil {
			return nil, nil, err
		}
	}
	model, err := loadArchiveModel(&a.Header)
	if err != nil {
		return nil, nil, err
	}
	return g, model, nil
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
