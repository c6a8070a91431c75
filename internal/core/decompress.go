package core

import (
	"bytes"
	"context"
	"fmt"
	"hash/crc32"
	"io"
	"slices"

	"repro/internal/cfnn"
	"repro/internal/chunk"
	"repro/internal/container"
	"repro/internal/huffman"
	"repro/internal/lossless"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// Decompress reconstructs a whole field at full fidelity from an
// in-memory blob, monolithic CFC1 or chunked CFC2: Decode over the blob
// with the default request. Baseline blobs need no anchors (pass nil);
// hybrid/cross-only blobs require the same decompressed anchor fields
// used at compression time, in the same order.
func Decompress(blob []byte, anchors []*tensor.Tensor) (*tensor.Tensor, error) {
	t, _, _, err := Decode(context.Background(), bytes.NewReader(blob), int64(len(blob)), Request{Chunk: Whole, Level: LevelFull, Anchors: anchors})
	return t, err
}

// Whole is the Request.Chunk that selects every chunk of a payload.
const Whole = -1

// Request selects what Decode reconstructs from one compressed payload.
type Request struct {
	// Chunk is Whole, or the index of the one chunk to decode; a
	// monolithic CFC1 payload is chunk 0.
	Chunk int
	// Level is LevelFull for the bit-exact reconstruction, or a preview
	// level of a layered payload (a non-layered payload decodes in full
	// at level 0 and has no other level).
	Level int
	// Anchors are the decompressed anchor fields a cross-field payload
	// predicts from, in the order used at compression time; nil for a
	// baseline payload.
	Anchors []*tensor.Tensor
	// Slabs marks anchors that cover only the chunk's slab range, each
	// with the chunk's dims, instead of whole fields — the serving
	// layer's form, which never materializes whole anchors. The
	// predictions are bit-identical either way: inference runs over
	// exactly the chunk's region.
	Slabs bool
	// Workers bounds the decode pool: chunks of a whole-container decode,
	// then the inference kernels, blocks and refinement planes inside
	// each chunk; <= 0 means GOMAXPROCS. The result is byte-identical at
	// any worker count.
	Workers int
}

// Decode is the one decode call. It reconstructs req's chunk (or the
// whole field) of the size-byte payload at the start of r at req.Level,
// and returns it with its starting slab along axis 0 (0 for Whole) and
// the achieved max error the compressor recorded for that level (NaN when
// the payload is not layered).
//
// Every route parses the same way. A CFC2 index must end exactly at
// size. A chunk read whole (LevelFull, or a non-layered chunk) is
// verified against its index checksum; a preview of a layered payload
// reads only the prefix its level needs, which the layer CRCs it reads
// cover, so a corrupt deeper layer leaves every lower level decodable. A
// CFC1 payload has no whole-payload checksum of its own: callers holding
// one (an archive manifest) verify it before decoding. An in-memory blob
// is a bytes.Reader. Whole decodes run the chunks in parallel, each
// chunk's CFNN inference inside its own decode; a single chunk reads no
// other chunk's payload. The decode stops at its next chunk, block or
// front boundary once ctx is done and returns ctx.Err().
func Decode(ctx context.Context, r io.ReaderAt, size int64, req Request) (*tensor.Tensor, int, float64, error) {
	if req.Workers <= 0 {
		req.Workers = parallel.Workers()
	}
	var head [4]byte
	if size >= int64(len(head)) {
		if _, err := r.ReadAt(head[:], 0); err != nil {
			return nil, 0, 0, err
		}
	}
	if chunk.IsChunked(head[:]) {
		return decodeContainer(ctx, r, size, req)
	}
	if req.Chunk != Whole && req.Chunk != 0 {
		return nil, 0, 0, fmt.Errorf("core: chunk %d out of [0,1) (monolithic blob)", req.Chunk)
	}
	b, err := readPayload(r, 0, size, req.Level, nil)
	if err != nil {
		return nil, 0, 0, err
	}
	vals, achieved, err := decodePayload(ctx, b, req.Level, req.Anchors, nil, nn.NewArena(), nil, req.Workers)
	if err != nil {
		return nil, 0, 0, err
	}
	t, err := tensor.FromSlice(vals, b.Dims...)
	return t, 0, achieved, err
}

// readPayload reads the CFC1 payload at [off, off+length) of r for a
// decode at level. A preview of a layered payload reads only the prefix
// the level needs, which the per-layer CRCs cover. Every other decode
// reads the whole payload, verifies it against crc when the caller has
// one (a CFC2 index checksum), and parses it as strictly as an in-memory
// payload.
func readPayload(r io.ReaderAt, off, length int64, level int, crc *uint32) (*container.Blob, error) {
	var head [5]byte
	if length < int64(len(head)) {
		return nil, fmt.Errorf("%w: %d-byte payload", container.ErrCorrupt, length)
	}
	if _, err := r.ReadAt(head[:], off); err != nil {
		return nil, err
	}
	if level != LevelFull && container.IsLayered(head[:]) {
		b, _, err := readLayeredPrefix(r, off, length, level)
		return b, err
	}
	// Sized by the bytes that arrive, not by the index's claim.
	buf, err := container.ReadN(io.NewSectionReader(r, off, length), int(length))
	if err != nil {
		return nil, err
	}
	if crc != nil && crc32.ChecksumIEEE(buf) != *crc {
		return nil, chunk.ErrChecksum
	}
	return parsePayload(buf, level)
}

// readLayeredPrefix reads the smallest practical prefix of the payload at
// [off, off+length) of r that parses with at least level+1 complete
// layers, growing geometrically. The returned blob references the prefix
// bytes read.
func readLayeredPrefix(r io.ReaderAt, off, length int64, level int) (*container.Blob, []byte, error) {
	sz := int64(1 << 16)
	for {
		if sz > length {
			sz = length
		}
		buf := make([]byte, sz)
		n, err := io.ReadFull(io.NewSectionReader(r, off, sz), buf)
		atEnd := sz == length
		if err == io.ErrUnexpectedEOF || err == io.EOF {
			// The source itself is shorter than the recorded payload length
			// (e.g. a truncated file): whatever arrived is all there is.
			buf = buf[:n]
			atEnd = true
		} else if err != nil {
			return nil, nil, err
		}
		b, avail, err := container.DecodePrefix(buf)
		if err == nil && avail > level {
			return b, buf, nil
		}
		if atEnd {
			if err == nil {
				return nil, nil, fmt.Errorf("%w: level %d needs %d layers, payload holds %d",
					container.ErrCorrupt, level, level+1, avail)
			}
			return nil, nil, err
		}
		// Parse one growth step ahead when the table is already known:
		// jump straight to the exact prefix the level needs.
		if err == nil && b.Layers != nil {
			if want := int64(b.LayerPrefixLen(level)); want > sz {
				sz = want
				continue
			}
		}
		sz *= 4
	}
}

// parsePayload parses a whole in-memory CFC1 payload for a decode at
// level: strictly at LevelFull (every layer present, no trailing bytes),
// as a possibly-truncated layered prefix for any other level.
func parsePayload(p []byte, level int) (*container.Blob, error) {
	if level == LevelFull {
		return container.Decode(p)
	}
	b, _, err := container.DecodePrefix(p)
	return b, err
}

// decodePayload is the one payload dispatcher: it parses one CFC1
// payload into the engine's descriptor (planPayload), runs its CFNN
// inference (resolveDQ) and the reconstruct engine, and returns the
// reconstruction at level — in out, or when out is nil in a slice
// allocated once the payload has parsed — with the achieved max error
// recorded for that level (NaN when the payload is not layered).
// Non-layered payloads accept only level 0 / LevelFull. workers bounds
// the inference kernels and the plane and block decode pools (<= 0 means
// GOMAXPROCS); ctx cancels it at block and front boundaries.
func decodePayload(ctx context.Context, b *container.Blob, level int, anchors []*tensor.Tensor, ext *cfnn.Model, arena *nn.Arena, out []float32, workers int) ([]float32, float64, error) {
	if workers <= 0 {
		workers = parallel.Workers()
	}
	p, err := planPayload(b, level, workers)
	if err != nil {
		return nil, 0, err
	}
	dq, err := resolveDQ(b, anchors, ext, arena, workers)
	if err != nil {
		return nil, 0, err
	}
	if out == nil {
		out = make([]float32, b.NumPoints())
	}
	return out, p.achieved, p.reconstruct(ctx, dq, out, workers)
}

// planPayload turns one parsed CFC1 payload — plain, block-coded or
// layered, whole or a prefix — into the descriptor of a decode at level.
// A layered payload's refinement planes through level decode here, on at
// most workers goroutines, for the engine's dequantize step.
func planPayload(b *container.Blob, level, workers int) (*payloadPlan, error) {
	ls := b.Layers
	enc, rawLen := b.Payload, b.PayloadRaw
	if ls == nil {
		if level > 0 {
			return nil, fmt.Errorf("core: payload is not layered; level %d unavailable", level)
		}
	} else {
		if level == LevelFull {
			level = ls.NumLevels() - 1
		}
		if level < 0 || level >= ls.NumLevels() {
			return nil, fmt.Errorf("core: level %d out of [0,%d)", level, ls.NumLevels())
		}
		if level >= b.LayersAvail() {
			return nil, fmt.Errorf("%w: level %d needs %d layers, prefix holds %d",
				container.ErrCorrupt, level, level+1, b.LayersAvail())
		}
		var err error
		if enc, err = b.LayerPayload(0); err != nil {
			return nil, err
		}
		rawLen = ls.Layers[0].RawLen
	}
	backend, err := lossless.ByID(b.BackendID)
	if err != nil {
		return nil, err
	}
	raw, err := inflate(backend, enc, rawLen, b.NumPoints())
	if err != nil {
		return nil, err
	}
	codec, _, err := huffman.UnmarshalCodec(b.Table)
	if err != nil {
		return nil, err
	}
	p, err := newPlan(b, raw, codec)
	if err != nil || ls == nil {
		return p, err
	}
	p.shift, p.achieved = ls.Shift, ls.Layers[level].MaxErr
	if rem := ls.Remaining(level); rem > 0 {
		p.mid = int32(1) << (rem - 1)
	}
	if p.planes, p.planeShifts, err = decodePlanes(b, backend, level, workers); err != nil {
		return nil, err
	}
	return p, nil
}

// inflate runs the lossless stage over one entropy-coded stream that
// must hold n codes. Every Huffman code is at least one bit, so a stream
// declaring fewer than n/8 bytes is rejected before anything is
// allocated for it or for the n codes.
func inflate(backend lossless.Backend, enc []byte, rawLen, n int) ([]byte, error) {
	if rawLen < (n+7)/8 {
		return nil, fmt.Errorf("%w: %d codes cannot fit a %d-byte stream", container.ErrCorrupt, n, rawLen)
	}
	return backend.Decompress(enc, rawLen)
}

// dqKeys name the arena buffers a chunk's predictions live in, one per
// axis.
var dqKeys = [3]string{"core.dq0", "core.dq1", "core.dq2"}

// resolveDQ runs the CFNN inference a cross-field blob's reconstruction
// needs (predictDQ): over anchors of the blob's dims, with the blob's
// embedded model or the container-level ext model, in arena on workers
// kernel workers. Baseline blobs return nil.
func resolveDQ(b *container.Blob, anchors []*tensor.Tensor, ext *cfnn.Model, arena *nn.Arena, workers int) ([][]float64, error) {
	switch b.Method {
	case container.MethodBaseline:
		return nil, nil
	case container.MethodHybrid, container.MethodCrossOnly:
		if len(anchors) == 0 {
			return nil, fmt.Errorf("%w: method %v, anchors %v", ErrNeedAnchors, b.Method, b.Anchors)
		}
		model := ext
		if len(b.Model) > 0 {
			var err error
			if model, err = cfnn.Load(b.Model); err != nil {
				return nil, err
			}
		}
		if model == nil {
			return nil, fmt.Errorf("core: blob method %v has no embedded model and none was supplied", b.Method)
		}
		for i, a := range anchors {
			if !slices.Equal(a.Shape(), b.Dims) {
				return nil, fmt.Errorf("core: anchor %d shape %v != field dims %v", i, a.Shape(), b.Dims)
			}
		}
		return predictDQ(model, anchors, b.AbsEB, arena, workers)
	default:
		return nil, fmt.Errorf("core: unknown method %v", b.Method)
	}
}

// predictDQ runs model's CFNN inference over anchors in arena on workers
// kernel workers, the one inference step of encode and decode, and
// returns the predicted differences in prequant units (d̂ / 2·eb), held in
// arena until its next use.
func predictDQ(model *cfnn.Model, anchors []*tensor.Tensor, eb float64, arena *nn.Arena, workers int) ([][]float64, error) {
	diffs, err := model.PredictDiffsWith(anchors, arena, workers)
	if err != nil {
		return nil, err
	}
	dq := make([][]float64, len(diffs))
	for a, d := range diffs {
		dq[a] = diffToPrequantUnits(arena.F64(dqKeys[a], d.Len()), d, eb)
	}
	return dq, nil
}

// PeekStats decodes just the container header of a blob — used by tools to
// inspect compressed files without full decompression.
func PeekStats(blob []byte) (*container.Blob, error) {
	return container.Decode(blob)
}
