package core

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math/rand"

	"repro/internal/bitstream"
	"repro/internal/cfnn"
	"repro/internal/container"
	"repro/internal/huffman"
	"repro/internal/metrics"
	"repro/internal/parallel"
	"repro/internal/predictor"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// CompressBaseline compresses a 1D/2D/3D field with the Lorenzo +
// dual-quantization baseline.
func CompressBaseline(field *tensor.Tensor, opts Options) (*Result, error) {
	eb, err := resolveEB(field, opts.Bound)
	if err != nil {
		return nil, err
	}
	return compressCrossFieldDQ(field, nil, nil, opts, container.MethodBaseline, eb)
}

// CompressHybrid compresses a 2D/3D field with the paper's hybrid
// cross-field pipeline. model must be trained; anchors must be the
// *decompressed* anchor fields (so the decompressor, given the same
// anchors, reproduces the predictions bit-for-bit).
func CompressHybrid(field *tensor.Tensor, model *cfnn.Model, anchors []*tensor.Tensor, opts Options) (*Result, error) {
	return compressCrossField(field, model, anchors, opts, container.MethodHybrid)
}

// CompressCrossOnly compresses using only the CFNN cross-field predictions
// (no Lorenzo term) — the Figure 6 "cross-field" configuration run as a
// full codec, used by the ablation benches.
func CompressCrossOnly(field *tensor.Tensor, model *cfnn.Model, anchors []*tensor.Tensor, opts Options) (*Result, error) {
	return compressCrossField(field, model, anchors, opts, container.MethodCrossOnly)
}

func compressCrossField(field *tensor.Tensor, model *cfnn.Model, anchors []*tensor.Tensor, opts Options, method container.Method) (*Result, error) {
	eb, err := resolveEB(field, opts.Bound)
	if err != nil {
		return nil, err
	}
	return compressCrossFieldWithEB(field, model, anchors, opts, method, eb, true)
}

// compressCrossFieldWithEB is the cross-field pipeline with the absolute
// error bound pre-resolved. includeModel controls whether the CFNN weights
// are embedded in the blob; the chunked engine passes false and stores the
// model once at the container level instead of once per chunk.
func compressCrossFieldWithEB(field *tensor.Tensor, model *cfnn.Model, anchors []*tensor.Tensor, opts Options, method container.Method, eb float64, includeModel bool) (*Result, error) {
	if field.Rank() != 2 && field.Rank() != 3 {
		return nil, fmt.Errorf("core: cross-field compression needs rank 2 or 3, got %d", field.Rank())
	}
	for i, a := range anchors {
		if !a.SameShape(field) {
			return nil, fmt.Errorf("core: anchor %d shape %v != field shape %v", i, a.Shape(), field.Shape())
		}
	}
	endInfer := opts.Stages.Timer("inference")
	dq, err := predictedDQWith(model, anchors, eb, nil, opts.Arena, 0)
	endInfer()
	if err != nil {
		return nil, err
	}
	stored := model
	if !includeModel {
		stored = nil
	}
	return compressCrossFieldDQ(field, dq, stored, opts, method, eb)
}

// compressCrossFieldDQ is the pipeline downstream of CFNN inference,
// shared by every method and payload kind: quantize, predict, then
// assemble a plain payload, or hand off to the layered
// compressor. The predicted-diff fields arrive precomputed in prequant
// units (dq, one slab per axis covering exactly this field; nil for the
// baseline). The chunked engine calls it per chunk with read-only slab
// views of one shared inference pass; stored, when non-nil, embeds the
// CFNN weights in the blob.
func compressCrossFieldDQ(field *tensor.Tensor, dq [][]float64, stored *cfnn.Model, opts Options, method container.Method, eb float64) (*Result, error) {
	opts = opts.withDefaults()
	if err := opts.resolveProg(); err != nil {
		return nil, err
	}
	endQuant := opts.Stages.Timer("quantize")
	q, err := quant.Prequantize(field.Data(), eb)
	endQuant()
	if err != nil {
		return nil, err
	}
	if opts.prog != nil {
		return compressProgressive(field, q, dq, stored, opts, method, eb)
	}
	endPredict := opts.Stages.Timer("predict")
	codes, hybrid, err := predict(q, field.Shape(), dq, method, opts)
	if err != nil {
		endPredict()
		return nil, err
	}
	endPredict()
	return assemble(field, codes, stored, hybrid, method, eb, achievedMaxErr(field.Data(), q, eb, 0), opts, nil, nil)
}

// predict runs the prediction stack over the prequant integers q and
// returns the residual codes and the hybrid parameters (weights, then the
// bias; nil for the baseline): Lorenzo residuals for the baseline, and for
// the cross-field methods the candidate features, a least-squares hybrid
// fit and the rounded hybrid prediction. The plain and layered
// compressors both predict here, the layered one over its base layer.
func predict(q []int32, dims []int, dq [][]float64, method container.Method, opts Options) ([]int32, []float64, error) {
	if method == container.MethodBaseline {
		lor, err := predictor.LorenzoAll(q, dims)
		if err != nil {
			return nil, nil, err
		}
		return predictor.ResidualCodesInt(q, lor), nil, nil
	}
	// Candidate predictions over the full field (compression side is
	// parallel thanks to dual quantization).
	feats, err := candidateFeatures(q, dims, dq, method)
	if err != nil {
		return nil, nil, err
	}
	hy, err := fitHybrid(feats, q, opts)
	if err != nil {
		return nil, nil, err
	}
	codes := make([]int32, len(q))
	parallel.ForRange(len(q), func(lo, hi int) {
		row := make([]float64, len(feats))
		for i := lo; i < hi; i++ {
			for k := range feats {
				row[k] = feats[k][i]
			}
			pred := roundHalfAway(clampPred(hy.Apply(row)))
			codes[i] = q[i] - int32(pred)
		}
	})
	return codes, append(append([]float64(nil), hy.W...), hy.Bias), nil
}

// candidateFeatures builds the per-point candidate predictions:
// [Lorenzo, cross-axis-0, ..., cross-axis-(r-1)] for hybrid, or just the
// cross predictions for cross-only.
func candidateFeatures(q []int32, dims []int, dq [][]float64, method container.Method) ([][]float64, error) {
	var feats [][]float64
	if method == container.MethodHybrid {
		lor, err := predictor.LorenzoAll(q, dims)
		if err != nil {
			return nil, err
		}
		lf := make([]float64, len(q))
		parallel.ForRange(len(q), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				lf[i] = float64(lor[i])
			}
		})
		feats = append(feats, lf)
	}
	strides := stridesOf(dims)
	for a := range dq {
		cf := make([]float64, len(q))
		axis := a
		stride, dim := strides[axis], dims[axis]
		dqa := dq[axis]
		parallel.ForRange(len(q), func(lo, hi int) {
			// Walk the axis coordinate incrementally instead of dividing
			// per point: coord advances by 1 every `stride` points and
			// wraps after `dim` steps.
			coord := (lo / stride) % dim
			phase := lo % stride
			for i := lo; i < hi; i++ {
				cf[i] = predictor.CrossFieldPred(q, i, stride, coord, dqa[i])
				if phase++; phase == stride {
					phase = 0
					if coord++; coord == dim {
						coord = 0
					}
				}
			}
		})
		feats = append(feats, cf)
	}
	return feats, nil
}

// marshalModel serializes CFNN weights for embedding in a container.
func marshalModel(model *cfnn.Model) ([]byte, error) {
	var mb bytes.Buffer
	if err := model.Save(&mb); err != nil {
		return nil, err
	}
	return mb.Bytes(), nil
}

func stridesOf(dims []int) []int {
	s := make([]int, len(dims))
	acc := 1
	for i := len(dims) - 1; i >= 0; i-- {
		s[i] = acc
		acc *= dims[i]
	}
	return s
}

// fitHybrid least-squares-fits the hybrid weights on a deterministic random
// sample of points.
func fitHybrid(feats [][]float64, q []int32, opts Options) (*predictor.Hybrid, error) {
	n := len(q)
	samples := opts.HybridSamples
	if samples > n {
		samples = n
	}
	rng := rand.New(rand.NewSource(opts.Seed + 1))
	idx := make([]int, samples)
	for i := range idx {
		idx[i] = rng.Intn(n)
	}
	sub := make([][]float64, len(feats))
	for k := range feats {
		sub[k] = make([]float64, samples)
		for i, p := range idx {
			sub[k][i] = feats[k][p]
		}
	}
	target := make([]float64, samples)
	for i, p := range idx {
		target[i] = float64(q[p])
	}
	return predictor.Fit(sub, target)
}

// entropyCode builds a Huffman codec for codes and encodes them.
func entropyCode(codes []int32, maxSymbols int) (*huffman.Codec, []byte, error) {
	codec, err := huffman.Build(codes, maxSymbols)
	if err != nil {
		return nil, nil, err
	}
	var w bitstream.Writer
	if err := codec.Encode(&w, codes); err != nil {
		return nil, nil, err
	}
	return codec, w.Bytes(), nil
}

// assemble entropy-codes the quantization codes and builds the container
// and its Stats. layers, when non-nil, makes the payload layered: the
// codes are its base layer, which assemble encodes into layer 0 of the
// table and layerData; the refinement planes arrive already encoded.
func assemble(field *tensor.Tensor, codes []int32, model *cfnn.Model, hybrid []float64, method container.Method, eb, maxErr float64, opts Options, layers *container.LayerSection, layerData [][]byte) (*Result, error) {
	endHuff := opts.Stages.Timer("huffman")
	codec, payloadRaw, err := entropyCode(codes, opts.MaxSymbols)
	endHuff()
	if err != nil {
		return nil, err
	}
	endFlate := opts.Stages.Timer("flate")
	payload, err := opts.Backend.Compress(payloadRaw)
	endFlate()
	if err != nil {
		return nil, err
	}
	table, err := codec.MarshalBinary()
	if err != nil {
		return nil, err
	}
	var modelBlob []byte
	if model != nil {
		if modelBlob, err = marshalModel(model); err != nil {
			return nil, err
		}
	}
	blob := &container.Blob{
		Header: container.Header{
			Method:     method,
			BoundMode:  byte(opts.Bound.Mode),
			BoundValue: opts.Bound.Value,
			AbsEB:      eb,
			Dims:       append([]int(nil), field.Shape()...),
			BackendID:  opts.Backend.ID(),
			Hybrid:     hybrid,
			Anchors:    append([]string(nil), opts.AnchorNames...),
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
		return nil, err
	}
	origBytes := field.Len() * 4
	st := Stats{
		Method:          method,
		OriginalBytes:   origBytes,
		CompressedBytes: len(enc),
		ModelBytes:      len(modelBlob),
		TableBytes:      tableBytes,
		PayloadBytes:    payloadBytes,
		AbsEB:           eb,
		MaxErr:          maxErr,
		Ratio:           metrics.CompressionRatio(origBytes, len(enc)),
		BitRate:         metrics.BitRate(field.Len(), len(enc)),
		CodeEntropy:     metrics.CodeEntropy(codes),
		HybridWeights:   hybrid,
	}
	return &Result{Blob: enc, Stats: st}, nil
}
