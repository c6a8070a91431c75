package core

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/cfnn"
	"repro/internal/container"
	"repro/internal/huffman"
	"repro/internal/lossless"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// Decompress reconstructs a field from a compressed blob. Baseline blobs
// need no anchors (pass nil); hybrid/cross-only blobs require the same
// decompressed anchor fields used at compression time, in the same order.
// Both container formats are accepted: monolithic CFC1 blobs and chunked
// CFC2 containers.
//
// Within one CFC1 blob, decompression is sequential in raster order — the
// Lorenzo dependency the paper describes — while the CFNN inference that
// produces the cross-field difference estimates runs up front in parallel.
// CFC2 containers additionally decompress chunk-parallel.
func Decompress(blob []byte, anchors []*tensor.Tensor) (*tensor.Tensor, error) {
	return DecompressChunkedWith(blob, anchors, 0)
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
// payload into the engine's descriptor (planPayload) and runs the one
// reconstruct engine on it, returning the reconstruction at level and the
// achieved max error the compressor recorded for that level (NaN when the
// payload is not layered). Non-layered payloads accept only level 0 /
// LevelFull and decode in full.
//
// For hybrid payloads, dq supplies the predicted-diff fields (prequant
// units) directly — the shared-inference chunked path computes them once
// per field and hands each chunk its slab views. Otherwise inference runs
// over anchors with the payload's embedded model, or ext for chunk
// payloads whose model is stored once at the CFC2 level. workers bounds
// the refinement-plane and block decode pools (<= 0 means GOMAXPROCS);
// ctx cancels every payload kind at block and front boundaries.
func decodePayload(ctx context.Context, b *container.Blob, level int, anchors []*tensor.Tensor, ext *cfnn.Model, dqExt [][]float64, workers int) (*tensor.Tensor, float64, error) {
	if workers <= 0 {
		workers = parallel.Workers()
	}
	p, err := planPayload(b, level, anchors, ext, dqExt, workers)
	if err != nil {
		return nil, 0, err
	}
	n := b.NumPoints()
	q := make([]int32, n)
	vals := make([]float32, n)
	if err := reconstructBlocks(ctx, q, vals, p, workers); err != nil {
		return nil, 0, err
	}
	t, err := tensor.FromSlice(vals, b.Dims...)
	return t, p.achieved, err
}

// planPayload turns one parsed CFC1 payload — plain, block-coded or
// layered, whole or a prefix — into the descriptor of a decode at level.
// A layered payload's base layer is a plain payload over dq scaled by
// 2^-shift; its refinement planes through level decode here, on at most
// workers goroutines, for the engine's dequantize step.
func planPayload(b *container.Blob, level int, anchors []*tensor.Tensor, ext *cfnn.Model, dqExt [][]float64, workers int) (*payloadPlan, error) {
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
	dq, err := resolveDQ(b, anchors, ext, dqExt)
	if err != nil {
		return nil, err
	}
	if ls != nil {
		dq = scaleDQ(dq, ls.Shift)
	}
	p, err := newPlan(b, raw, codec, dq)
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

// resolveDQ produces the cross-field difference predictions (prequant
// units) a blob's reconstruction needs: the externally-supplied slabs when
// the shared-inference pass computed them, otherwise a fresh CFNN
// inference over the supplied anchors using the blob's embedded model or
// the container-level ext model. Baseline blobs return nil.
func resolveDQ(b *container.Blob, anchors []*tensor.Tensor, ext *cfnn.Model, dqExt [][]float64) ([][]float64, error) {
	switch b.Method {
	case container.MethodBaseline:
		return nil, nil
	case container.MethodHybrid, container.MethodCrossOnly:
		if dqExt != nil {
			return dqExt, nil
		}
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
		return predictedDQ(model, anchors, b.AbsEB)
	default:
		return nil, fmt.Errorf("core: unknown method %v", b.Method)
	}
}

// PeekStats decodes just the container header of a blob — used by tools to
// inspect compressed files without full decompression.
func PeekStats(blob []byte) (*container.Blob, error) {
	return container.Decode(blob)
}
