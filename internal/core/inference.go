package core

// The shared-inference stage of chunked hybrid compression (encode only):
// one segmented PredictDiffsWith pass per field (segment = chunk slab, so
// every chunk's predictions are bit-identical to inference over that
// chunk's anchor views alone) produces full-field predicted-diff slabs in
// prequant units, and chunk workers receive read-only slab views of them.
// Decode runs each chunk's inference inside that chunk's decode instead,
// in a chunk-sized arena per worker (decodeChunks), to the same bits.

import (
	"repro/internal/cfnn"
	"repro/internal/chunk"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// fieldInference holds one field's full-field predicted-diff slabs (one
// per axis, prequant units) plus the grid that partitions them. The slabs
// are written once by the inference pass and only ever read afterwards,
// which is what makes handing slices of them to concurrent chunk workers
// safe without any synchronization.
type fieldInference struct {
	dq [][]float64
	g  *chunk.Grid
}

// newFieldInference runs the one-pass segmented inference for a chunked
// hybrid field. arena may be nil (private scratch) or shared across
// sequential calls — e.g. across the fields of one dataset archive — to
// amortize buffer warmup; workers bounds kernel parallelism.
func newFieldInference(model *cfnn.Model, anchors []*tensor.Tensor, eb float64, g *chunk.Grid, arena *nn.Arena, workers int) (*fieldInference, error) {
	dq, err := predictedDQWith(model, anchors, eb, g.Counts(), arena, workers)
	if err != nil {
		return nil, err
	}
	return &fieldInference{dq: dq, g: g}, nil
}

// chunkDQ returns read-only slab views of the predicted-diff fields
// covering chunk i. The returned slices alias the shared full-field
// arrays; workers must treat them as immutable. A nil inference (a
// baseline container) yields nil.
func (fi *fieldInference) chunkDQ(i int) [][]float64 {
	if fi == nil {
		return nil
	}
	lo := fi.g.Offset(i)
	hi := lo + fi.g.Voxels(i)
	out := make([][]float64, len(fi.dq))
	for a, d := range fi.dq {
		out[a] = d[lo:hi:hi]
	}
	return out
}

// predictedDQWith runs CFNN inference (optionally segmented, optionally
// arena-backed) and converts each axis' difference field to prequant
// units. The returned arrays are freshly allocated — independent of the
// arena — so they stay valid for concurrent readers while the arena moves
// on.
func predictedDQWith(model *cfnn.Model, anchors []*tensor.Tensor, eb float64, segCounts []int, arena *nn.Arena, workers int) ([][]float64, error) {
	diffs, err := model.PredictDiffsWith(anchors, segCounts, arena, workers)
	if err != nil {
		return nil, err
	}
	dq := make([][]float64, len(diffs))
	for a, d := range diffs {
		dq[a] = diffToPrequantUnits(make([]float64, d.Len()), d, eb)
	}
	return dq, nil
}
