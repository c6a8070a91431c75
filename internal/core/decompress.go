package core

import (
	"bytes"
	"context"
	"fmt"
	"math"

	"repro/internal/bitstream"
	"repro/internal/cfnn"
	"repro/internal/container"
	"repro/internal/huffman"
	"repro/internal/lossless"
	"repro/internal/predictor"
	"repro/internal/quant"
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

// decodePayload is the one payload dispatcher: it reverses one parsed
// CFC1 payload at level, returning the reconstruction and the achieved
// max error the compressor recorded for that level (NaN when the payload
// is not layered). Non-layered payloads accept only level 0 / LevelFull
// and decode in full.
//
// For hybrid payloads, dq supplies the predicted-diff fields (prequant
// units) directly — the shared-inference chunked path computes them once
// per field and hands each chunk its slab views. Otherwise inference runs
// over anchors with the payload's embedded model, or ext for chunk
// payloads whose model is stored once at the CFC2 level. workers bounds
// the decode worker pool for block-coded payloads (<= 0 means
// GOMAXPROCS); ctx cancels them at block/front boundaries. Plain payloads
// decode sequentially and run to completion.
func decodePayload(ctx context.Context, b *container.Blob, level int, anchors []*tensor.Tensor, ext *cfnn.Model, dqExt [][]float64, workers int) (*tensor.Tensor, float64, error) {
	if b.Layers != nil {
		return reconstructLayered(b, anchors, ext, dqExt, level)
	}
	if level > 0 {
		return nil, 0, fmt.Errorf("core: payload is not layered; level %d unavailable", level)
	}
	backend, err := lossless.ByID(b.BackendID)
	if err != nil {
		return nil, 0, err
	}
	payloadRaw, err := backend.Decompress(b.Payload, b.PayloadRaw)
	if err != nil {
		return nil, 0, err
	}
	codec, _, err := huffman.UnmarshalCodec(b.Table)
	if err != nil {
		return nil, 0, err
	}
	dq, err := resolveDQ(b, anchors, ext, dqExt)
	if err != nil {
		return nil, 0, err
	}
	n := b.NumPoints()
	if b.Blocks != nil {
		q := make([]int32, n)
		vals := make([]float32, n)
		if err := reconstructBlocks(ctx, q, vals, payloadRaw, codec, b, dq, workers); err != nil {
			return nil, 0, err
		}
		t, err := tensor.FromSlice(vals, b.Dims...)
		return t, math.NaN(), err
	}
	codes, err := codec.Decode(bitstream.NewReader(payloadRaw), n)
	if err != nil {
		return nil, 0, err
	}
	q := make([]int32, n)
	if b.Method == container.MethodBaseline {
		if err := reconstructBaseline(q, codes, b.Dims); err != nil {
			return nil, 0, err
		}
	} else if err := reconstructCrossField(q, codes, b.Dims, dq, b.Hybrid, b.Method); err != nil {
		return nil, 0, err
	}
	vals := quant.Dequantize(q, b.AbsEB)
	t, err := tensor.FromSlice(vals, b.Dims...)
	return t, math.NaN(), err
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
			if model, err = cfnn.Load(bytes.NewReader(b.Model)); err != nil {
				return nil, err
			}
		}
		if model == nil {
			return nil, fmt.Errorf("core: blob method %v has no embedded model and none was supplied", b.Method)
		}
		for i, a := range anchors {
			if !sameDims(a.Shape(), b.Dims) {
				return nil, fmt.Errorf("core: anchor %d shape %v != field dims %v", i, a.Shape(), b.Dims)
			}
		}
		return predictedDQ(model, anchors, b.AbsEB)
	default:
		return nil, fmt.Errorf("core: unknown method %v", b.Method)
	}
}

// reconstructBaseline reverses Lorenzo prediction sequentially.
func reconstructBaseline(q []int32, codes []int32, dims []int) error {
	switch len(dims) {
	case 1:
		for i := range q {
			q[i] = codes[i] + int32(predictor.LorenzoPred1D(q, i))
		}
	case 2:
		ny, nx := dims[0], dims[1]
		p := 0
		for i := 0; i < ny; i++ {
			for j := 0; j < nx; j++ {
				q[p] = codes[p] + int32(predictor.LorenzoPred2D(q, nx, i, j))
				p++
			}
		}
	case 3:
		nz, ny, nx := dims[0], dims[1], dims[2]
		p := 0
		for k := 0; k < nz; k++ {
			for i := 0; i < ny; i++ {
				for j := 0; j < nx; j++ {
					q[p] = codes[p] + int32(predictor.LorenzoPred3D(q, ny, nx, k, i, j))
					p++
				}
			}
		}
	default:
		return fmt.Errorf("core: unsupported rank %d", len(dims))
	}
	return nil
}

// reconstructCrossField reverses the hybrid (or cross-only) prediction
// sequentially, recomputing the same candidate predictions the compressor
// used, now over reconstructed prequant values.
func reconstructCrossField(q []int32, codes []int32, dims []int, dq [][]float64, weights []float64, method container.Method) error {
	rank := len(dims)
	if rank != 2 && rank != 3 {
		return fmt.Errorf("core: cross-field rank %d unsupported", rank)
	}
	if len(dq) != rank {
		return fmt.Errorf("core: %d dq fields for rank %d", len(dq), rank)
	}
	numFeats := rank
	if method == container.MethodHybrid {
		numFeats++
	}
	if len(weights) != numFeats+1 {
		return fmt.Errorf("core: %d hybrid params, want %d", len(weights), numFeats+1)
	}
	hy := &predictor.Hybrid{W: weights[:numFeats], Bias: weights[numFeats]}
	strides := stridesOf(dims)
	row := make([]float64, numFeats)

	if rank == 2 {
		ny, nx := dims[0], dims[1]
		p := 0
		for i := 0; i < ny; i++ {
			for j := 0; j < nx; j++ {
				f := 0
				if method == container.MethodHybrid {
					row[f] = float64(predictor.LorenzoPred2D(q, nx, i, j))
					f++
				}
				row[f] = predictor.CrossFieldPred(q, p, strides[0], i, dq[0][p])
				row[f+1] = predictor.CrossFieldPred(q, p, strides[1], j, dq[1][p])
				pred := roundHalfAway(clampPred(hy.Apply(row)))
				q[p] = codes[p] + int32(pred)
				p++
			}
		}
		return nil
	}
	nz, ny, nx := dims[0], dims[1], dims[2]
	p := 0
	for k := 0; k < nz; k++ {
		for i := 0; i < ny; i++ {
			for j := 0; j < nx; j++ {
				f := 0
				if method == container.MethodHybrid {
					row[f] = float64(predictor.LorenzoPred3D(q, ny, nx, k, i, j))
					f++
				}
				row[f] = predictor.CrossFieldPred(q, p, strides[0], k, dq[0][p])
				row[f+1] = predictor.CrossFieldPred(q, p, strides[1], i, dq[1][p])
				row[f+2] = predictor.CrossFieldPred(q, p, strides[2], j, dq[2][p])
				pred := roundHalfAway(clampPred(hy.Apply(row)))
				q[p] = codes[p] + int32(pred)
				p++
			}
		}
	}
	return nil
}

func sameDims(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// PeekStats decodes just the container header of a blob — used by tools to
// inspect compressed files without full decompression.
func PeekStats(blob []byte) (*container.Blob, error) {
	b, err := container.Decode(blob)
	if err != nil {
		return nil, err
	}
	return b, nil
}
