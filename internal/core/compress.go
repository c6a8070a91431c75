package core

import (
	"bytes"
	"context"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/bitstream"
	"repro/internal/cfnn"
	"repro/internal/chunk"
	"repro/internal/container"
	"repro/internal/huffman"
	"repro/internal/lossless"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/predictor"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// EncodeRequest selects how Encode compresses one field.
type EncodeRequest struct {
	// Bound is the error bound (required). It is resolved to an absolute
	// bound once over the whole field, so every chunk, and so every point
	// including chunk seams, honors the same bound.
	Bound quant.Bound
	// Model is the trained CFNN of the paper's hybrid cross-field
	// pipeline; nil selects the Lorenzo baseline.
	Model *cfnn.Model
	// Anchors are the *decompressed* anchor fields the model predicts
	// from, whole and in the model's order, so a decoder given the same
	// anchors reproduces the predictions bit for bit; nil for the
	// baseline.
	Anchors []*tensor.Tensor
	// AnchorNames are recorded in the container for bookkeeping.
	AnchorNames []string
	// ChunkVoxels is 0 for a monolithic CFC1 payload: one chunk, with the
	// model embedded. A positive value writes a CFC2 container, the model
	// stored once, of chunks of about ChunkVoxels values, rounded to whole
	// slabs along the slowest axis. Negative values are rejected.
	ChunkVoxels int
	// Progressive, when non-nil, writes layered payloads for progressive
	// multi-resolution retrieval (see progressive.go). Containers become
	// CFC1 v3 / CFC2 v4.
	Progressive *ProgressiveSpec
	// Workers bounds the encode: at most Workers chunks in flight, leftover
	// workers going to each chunk's inference kernels; 0 means GOMAXPROCS,
	// and negative values are rejected. The bytes are the same at any
	// worker count.
	Workers int
	// Stages, when non-nil, accumulates per-stage wall time (inference,
	// quantize, predict, huffman, flate) over every chunk; it never
	// affects the bytes.
	Stages *obs.Stages
}

// The fixed encode settings, part of every byte the encoder writes: the
// sample count and seed of the hybrid least-squares fit.
const (
	hybridSamples = 20000
	hybridSeed    = 1
)

// Encode is the one encode call. It compresses field under req and writes
// the container to w: a monolithic CFC1 payload, or a CFC2 container whose
// header and chunk index precede the payloads. A nil req.Model selects
// the baseline, SZ3's Lorenzo predictor with dual quantization (Section
// IV-A2); a trained one the paper's hybrid, CFNN cross-field difference
// predictions fused with Lorenzo (Sections III-B/C/D).
//
// Every chunk runs one pipeline on its own: CFNN inference over the
// chunk's anchor views, quantize, predict, Huffman and lossless. Dual
// quantization leaves no read-after-write hazard between chunks, so they
// run in parallel, at most req.Workers in flight, each in-flight worker
// reusing one inference arena for the call. The encode stops before its
// next chunk once ctx is done and returns ctx.Err(); nothing is written
// to w then.
func Encode(ctx context.Context, w io.Writer, field *tensor.Tensor, req EncodeRequest) (*Stats, error) {
	method := container.MethodBaseline
	if req.Model != nil {
		method = container.MethodHybrid
	}
	return encode(ctx, w, field, req, method)
}

// CompressCrossOnly is Encode with only the CFNN cross-field predictions
// (no Lorenzo term): the Figure 6 "cross-field" configuration run as a
// full codec, used by the ablation benches.
func CompressCrossOnly(ctx context.Context, w io.Writer, field *tensor.Tensor, req EncodeRequest) (*Stats, error) {
	if req.Model == nil {
		return nil, fmt.Errorf("core: cross-only compression needs a model")
	}
	return encode(ctx, w, field, req, container.MethodCrossOnly)
}

// encoder is one encode call's resolved plan, shared read-only by its
// chunk workers.
type encoder struct {
	req       EncodeRequest
	method    container.Method
	eb        float64
	prog      *progPlan
	g         *chunk.Grid
	modelBlob []byte // the serialized model; nil for the baseline
}

func encode(ctx context.Context, w io.Writer, field *tensor.Tensor, req EncodeRequest, method container.Method) (*Stats, error) {
	if req.ChunkVoxels < 0 {
		return nil, fmt.Errorf("core: ChunkVoxels must be >= 0 (0 = monolithic), got %d", req.ChunkVoxels)
	}
	if req.Workers < 0 {
		return nil, fmt.Errorf("core: Workers must be >= 0 (0 = GOMAXPROCS), got %d", req.Workers)
	}
	if req.Workers == 0 {
		req.Workers = parallel.Workers()
	}
	if method != container.MethodBaseline {
		if field.Rank() != 2 && field.Rank() != 3 {
			return nil, fmt.Errorf("core: cross-field compression needs rank 2 or 3, got %d", field.Rank())
		}
		if len(req.Anchors) == 0 {
			return nil, fmt.Errorf("core: cross-field compression needs anchors")
		}
		for i, a := range req.Anchors {
			if !a.SameShape(field) {
				return nil, fmt.Errorf("core: anchor %d shape %v != field shape %v", i, a.Shape(), field.Shape())
			}
		}
	}
	e := &encoder{req: req, method: method}
	var err error
	// Resolve the layer plan once, so every chunk shares identical layer
	// geometry and bad progressive options fail before any work.
	if e.prog, err = resolveProg(req.Progressive, req.Bound); err != nil {
		return nil, err
	}
	if e.eb, err = resolveEB(field, req.Bound); err != nil {
		return nil, err
	}
	if req.ChunkVoxels == 0 {
		e.g, err = chunk.FromCounts(field.Shape(), field.Shape()[:1])
	} else {
		e.g, err = chunk.Plan(field.Shape(), req.ChunkVoxels)
	}
	if err != nil {
		return nil, err
	}
	if req.Model != nil {
		if e.modelBlob, err = marshalModel(req.Model); err != nil {
			return nil, err
		}
	}
	n := e.g.NumChunks()
	payloads := make([][]byte, n)
	stats := make([]Stats, n)
	err = eachChunk(ctx, n, req.Workers, func(i int, arena *nn.Arena, workers int) error {
		var err error
		if payloads[i], stats[i], err = e.chunk(field, i, arena, workers); err != nil && !e.monolithic() {
			err = fmt.Errorf("core: chunk %d: %w", i, err)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	if e.monolithic() {
		if _, err := w.Write(payloads[0]); err != nil {
			return nil, err
		}
		return &stats[0], nil
	}
	hdr := &chunk.Header{
		Method:     method,
		BoundMode:  byte(req.Bound.Mode),
		BoundValue: req.Bound.Value,
		AbsEB:      e.eb,
		Dims:       append([]int(nil), field.Shape()...),
		Anchors:    append([]string(nil), req.AnchorNames...),
		Model:      e.modelBlob,
		Layered:    e.prog != nil,
	}
	maxErrs := make([]float64, n)
	for i, cs := range stats {
		maxErrs[i] = cs.MaxErr
	}
	total, err := chunk.EncodeTo(w, hdr, e.g, payloads, maxErrs)
	if err != nil {
		return nil, err
	}
	st := aggregateChunkStats(field, stats, method, e.eb, total, len(e.modelBlob))
	return &st, nil
}

// monolithic reports whether the encode writes one CFC1 payload, which
// then carries the model and anchor names itself.
func (e *encoder) monolithic() bool { return e.req.ChunkVoxels == 0 }

// chunk compresses chunk i of field into a CFC1 payload: CFNN inference
// over the chunk's anchor views in arena on workers kernel workers, then
// quantize, predict and assemble, plain or layered.
func (e *encoder) chunk(field *tensor.Tensor, i int, arena *nn.Arena, workers int) ([]byte, Stats, error) {
	sub, err := e.g.View(field, i)
	if err != nil {
		return nil, Stats{}, err
	}
	var dq [][]float64
	if e.req.Model != nil {
		anchors, err := e.g.Views(e.req.Anchors, i)
		if err != nil {
			return nil, Stats{}, err
		}
		endInfer := e.req.Stages.Timer("inference")
		dq, err = predictDQ(e.req.Model, anchors, e.eb, arena, workers)
		endInfer()
		if err != nil {
			return nil, Stats{}, err
		}
	}
	endQuant := e.req.Stages.Timer("quantize")
	q, err := quant.Prequantize(sub.Data(), e.eb)
	endQuant()
	if err != nil {
		return nil, Stats{}, err
	}
	if e.prog != nil {
		return e.layered(sub, q, dq)
	}
	endPredict := e.req.Stages.Timer("predict")
	codes, hybrid, err := predict(q, sub.Shape(), dq, e.method)
	endPredict()
	if err != nil {
		return nil, Stats{}, err
	}
	return e.assemble(sub, codes, hybrid, achievedMaxErr(sub.Data(), q, e.eb, 0), nil, nil)
}

// predict runs the prediction stack over the prequant integers q and
// returns the residual codes and the hybrid parameters (weights, then the
// bias; nil for the baseline): Lorenzo residuals for the baseline, and for
// the cross-field methods a least-squares hybrid fit on sampled features
// and the codes against it through the decoder's kernel (hybrid.go). The
// plain and layered compressors both predict here, the layered one over
// its base layer.
func predict(q []int32, dims []int, dq [][]float64, method container.Method) ([]int32, []float64, error) {
	if method == container.MethodBaseline {
		lor, err := predictor.LorenzoAll(q, dims)
		if err != nil {
			return nil, nil, err
		}
		return predictor.ResidualCodesInt(q, lor), nil, nil
	}
	f, err := NewFeatures(q, dims, dq, method)
	if err != nil {
		return nil, nil, err
	}
	hy, err := f.Fit()
	if err != nil {
		return nil, nil, err
	}
	return f.codes(hy), append(append([]float64(nil), hy.W...), hy.Bias), nil
}

// marshalModel serializes CFNN weights for embedding in a container.
func marshalModel(model *cfnn.Model) ([]byte, error) {
	var mb bytes.Buffer
	if err := model.Save(&mb); err != nil {
		return nil, err
	}
	return mb.Bytes(), nil
}

// entropyCode builds a Huffman codec for codes, at the default alphabet
// cap, and encodes them.
func entropyCode(codes []int32) (*huffman.Codec, []byte, error) {
	codec, err := huffman.Build(codes, huffman.DefaultMaxSymbols)
	if err != nil {
		return nil, nil, err
	}
	var w bitstream.Writer
	if err := codec.Encode(&w, codes); err != nil {
		return nil, nil, err
	}
	return codec, w.Bytes(), nil
}

// assemble entropy-codes the quantization codes of chunk field and
// builds its CFC1 payload and Stats; a monolithic payload also carries the
// model and anchor names. layers, when non-nil, makes the payload layered:
// the codes are its base layer, which assemble encodes into layer 0 of
// the table and layerData; the refinement planes arrive already encoded.
func (e *encoder) assemble(field *tensor.Tensor, codes []int32, hybrid []float64, maxErr float64, layers *container.LayerSection, layerData [][]byte) ([]byte, Stats, error) {
	endHuff := e.req.Stages.Timer("huffman")
	codec, payloadRaw, err := entropyCode(codes)
	endHuff()
	if err != nil {
		return nil, Stats{}, err
	}
	endFlate := e.req.Stages.Timer("flate")
	payload, err := lossless.Default().Compress(payloadRaw)
	endFlate()
	if err != nil {
		return nil, Stats{}, err
	}
	table, err := codec.MarshalBinary()
	if err != nil {
		return nil, Stats{}, err
	}
	var modelBlob []byte
	var names []string
	if e.monolithic() {
		modelBlob, names = e.modelBlob, append([]string(nil), e.req.AnchorNames...)
	}
	blob := &container.Blob{
		Header: container.Header{
			Method:     e.method,
			BoundMode:  byte(e.req.Bound.Mode),
			BoundValue: e.req.Bound.Value,
			AbsEB:      e.eb,
			Dims:       append([]int(nil), field.Shape()...),
			BackendID:  lossless.Default().ID(),
			Hybrid:     hybrid,
			Anchors:    names,
		},
		Model: modelBlob,
		Table: table,
	}
	tableBytes, payloadBytes := len(table), len(payload)
	if layers == nil {
		blob.PayloadRaw, blob.Payload = len(payloadRaw), payload
	} else {
		base := &layers.Layers[0]
		base.RawLen, base.EncLen, base.CRC = len(payloadRaw), len(payload), crc32.ChecksumIEEE(payload)
		layerData[0] = payload
		blob.Layers, blob.LayerData = layers, layerData
		for _, ly := range layers.Layers[1:] {
			tableBytes += len(ly.Table)
			payloadBytes += ly.EncLen
		}
	}
	enc, err := container.Encode(blob)
	if err != nil {
		return nil, Stats{}, err
	}
	origBytes := field.Len() * 4
	return enc, Stats{
		Method:          e.method,
		OriginalBytes:   origBytes,
		CompressedBytes: len(enc),
		ModelBytes:      len(modelBlob),
		TableBytes:      tableBytes,
		PayloadBytes:    payloadBytes,
		AbsEB:           e.eb,
		MaxErr:          maxErr,
		Ratio:           metrics.CompressionRatio(origBytes, len(enc)),
		BitRate:         metrics.BitRate(field.Len(), len(enc)),
		CodeEntropy:     metrics.CodeEntropy(codes),
		HybridWeights:   hybrid,
	}, nil
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
