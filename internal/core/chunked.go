package core

import (
	"context"
	"fmt"
	"io"
	"math"
	"slices"

	"repro/internal/cfnn"
	"repro/internal/chunk"
	"repro/internal/container"
	"repro/internal/lossless"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

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
	// Every value takes at least one Huffman bit, which the lossless stage
	// holds in at most 1/MaxRatio of a byte: a chunk declaring more values
	// than its payload can hold is corrupt, and is rejected before any
	// output is allocated for it.
	for i := lo; i < hi; i++ {
		const perByte = 8 * lossless.MaxRatio
		if n, size := g.Voxels(i), a.Index[i].PayloadLen; (n+perByte-1)/perByte > size {
			return nil, 0, 0, fmt.Errorf("%w: chunk %d declares %d values, its %d-byte payload holds at most %d",
				container.ErrCorrupt, i, n, size, size*perByte)
		}
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

// decodeChunks decodes chunks [lo, hi) on eachChunk: decode reconstructs
// chunk i into out, its region of one output over their slabs (nil for a
// lone chunk: allocated once its payload parses), running its CFNN
// inference in arena on workers kernel workers. ctx is also checked at
// each chunk's block and front boundaries.
func decodeChunks(ctx context.Context, g *chunk.Grid, lo, hi, workers int, decode func(i int, out []float32, arena *nn.Arena, workers int) ([]float32, float64, error)) (*tensor.Tensor, float64, error) {
	n := hi - lo
	base := g.Offset(lo)
	var out []float32
	if n > 1 {
		out = make([]float32, g.Offset(hi-1)+g.Voxels(hi-1)-base)
	}
	achieved := make([]float64, n)
	err := eachChunk(ctx, n, workers, func(k int, arena *nn.Arena, workers int) error {
		i := lo + k
		var dst []float32
		if n > 1 {
			dst = out[g.Offset(i)-base : g.Offset(i)-base+g.Voxels(i)]
		}
		vals, ach, err := decode(i, dst, arena, workers)
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

// eachChunk is the one chunk loop, shared by encode and decode: it runs
// fn(k) for every k in [0, n) with at most min(workers, n) chunks in
// flight. Each in-flight worker owns one arena for the length of the call
// and hands fn max(1, workers/inFlight) kernel workers. ctx is checked
// before every chunk; the first error (the lowest chunk's) stops it.
func eachChunk(ctx context.Context, n, workers int, fn func(k int, arena *nn.Arena, workers int) error) error {
	inFlight := min(workers, n)
	arenas := make(chan *nn.Arena, inFlight)
	for range inFlight {
		arenas <- nn.NewArena()
	}
	return parallel.ForErr(inFlight, n, func(k int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		arena := <-arenas
		defer func() { arenas <- arena }()
		return fn(k, arena, max(1, workers/inFlight))
	})
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
