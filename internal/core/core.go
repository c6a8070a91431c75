// Package core assembles the full error-bounded lossy compressor: dual
// quantization → prediction (Lorenzo baseline, or the paper's hybrid
// cross-field prediction) → canonical Huffman coding → lossless backend →
// self-describing container.
//
// Encoding is one call, Encode, whose EncodeRequest picks the method (a
// nil Model is the paper's baseline, SZ3's Lorenzo predictor modified to
// dual quantization, Section IV-A2; a trained CFNN is the paper's hybrid,
// Sections III-B/C/D), the layout (ChunkVoxels 0 writes a monolithic CFC1
// payload with the model embedded, a positive value a random-access CFC2
// container of independent slabs with the model stored once), layered
// payloads and the worker bound. A monolithic payload is one chunk: every
// chunk runs its CFNN inference over its own anchor views, then quantize,
// predict and assemble, at most Workers chunks in flight, each in-flight
// worker reusing one inference arena (eachChunk, the chunk loop decode
// shares). The model weights, hybrid weights and Huffman tables travel
// inside the container and are charged to the compressed size.
// CompressCrossOnly runs the same loop with the CFNN predictions alone,
// for the ablation benches.
//
// Decoding is one call, Decode, over an io.ReaderAt; an in-memory blob is
// a bytes.Reader, and Decompress is Decode's whole-field, full-fidelity
// request. For hybrid payloads the caller must supply the same
// decompressed anchor fields the encoder used. A Request picks the chunk
// (Whole, or one chunk read without any other chunk's payload), the level
// (LevelFull, or a preview of a layered payload), whole or slab anchors
// (the serving layer's form, which never materializes whole anchors) and
// the worker bound. Under it runs one parse route: a CFC2 index parsed to
// end exactly at the payload's size, and readPayload, which reads a chunk
// whole under its index checksum or, for a preview, only the prefix its
// layer CRCs cover. Every payload then ends in one reconstruct engine,
// decodePayload → reconstructBlocks (blocks.go): every payload version
// parses into one descriptor, a plain sequential payload being one block
// and a layered payload's level a plan for the per-block dequantize step.
// On the encode side, one prediction step (predict) and one payload
// assembly (assemble) serve plain and layered payloads; block-coded
// payloads are decode-only.
package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/container"
	"repro/internal/metrics"
	"repro/internal/parallel"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// Stats reports the outcome of one compression.
type Stats struct {
	Method          container.Method
	OriginalBytes   int
	CompressedBytes int
	ModelBytes      int // CFNN weights stored in the blob
	TableBytes      int // Huffman table
	PayloadBytes    int // entropy-coded + lossless-compressed codes
	AbsEB           float64
	// MaxErr is the achieved maximum absolute reconstruction error,
	// computed at compression time (dual quantization makes the committed
	// loss — prequant rounding plus float32 dequantization — known without
	// decompressing). Always <= AbsEB plus float32 ulp tolerance.
	MaxErr        float64
	Ratio         float64
	BitRate       float64
	CodeEntropy   float64 // Shannon entropy of the quantization codes
	HybridWeights []float64
}

// ErrNeedAnchors is returned when decompressing a cross-field blob without
// anchor fields.
var ErrNeedAnchors = errors.New("core: blob requires decompressed anchor fields")

// maxPred bounds predictions so postquant codes stay in int32.
const maxPred = 1 << 28

func clampPred(v float64) float64 {
	if v > maxPred {
		return maxPred
	}
	if v < -maxPred {
		return -maxPred
	}
	return v
}

func roundHalfAway(v float64) int64 {
	if v >= 0 {
		return int64(v + 0.5)
	}
	return int64(v - 0.5)
}

// resolveEB computes the absolute error bound for a field.
func resolveEB(field *tensor.Tensor, bound quant.Bound) (float64, error) {
	vr := metrics.ValueRange(field.Data())
	return bound.Absolute(vr)
}

// achievedMaxErr computes the reconstruction error compression commits to
// with r refinement bits still unknown (r = 0 for a full decode):
// decompression reproduces the prequant values q exactly (postquant codes
// are exact integer residuals), or q with its low r bits dropped and the
// gap filled with the interval midpoint, so the only other loss is
// prequant rounding plus the float32 rounding of dequantization — all
// known here, without running the decompressor.
func achievedMaxErr(data []float32, q []int32, eb float64, r int) float64 {
	const grain = 1 << 15
	s := 2 * eb
	var mid int32
	if r > 0 {
		mid = int32(1) << (r - 1)
	}
	n := (len(data) + grain - 1) / grain
	return parallel.MapReduce(n, 0.0,
		func(c int, acc float64) float64 {
			lo, hi := c*grain, (c+1)*grain
			if hi > len(data) {
				hi = len(data)
			}
			for i := lo; i < hi; i++ {
				qh := (q[i]>>r)<<r + mid
				e := math.Abs(float64(data[i]) - float64(float32(float64(qh)*s)))
				if e > acc {
					acc = e
				}
			}
			return acc
		},
		math.Max)
}

// diffToPrequantUnits converts a CFNN difference field (physical units)
// into prequant units, dq = d̂ / (2·eb), in dst, and returns dst.
func diffToPrequantUnits(dst []float64, d *tensor.Tensor, eb float64) []float64 {
	inv := 1 / (2 * eb)
	for i, v := range d.Data() {
		dst[i] = float64(v) * inv
	}
	return dst
}

// VerifyBound checks the reconstruction against the absolute error bound
// (plus the float32 ulp tolerance) and returns the observed maximum error.
func VerifyBound(orig, recon *tensor.Tensor, ebAbs float64) (maxErr float64, ok bool, err error) {
	if !orig.SameShape(recon) {
		return 0, false, fmt.Errorf("core: verify shape mismatch %v vs %v", orig.Shape(), recon.Shape())
	}
	maxErr, err = metrics.MaxAbsError(orig.Data(), recon.Data())
	if err != nil {
		return 0, false, err
	}
	s := orig.Summary()
	maxAbs := math.Max(math.Abs(float64(s.Min)), math.Abs(float64(s.Max)))
	return maxErr, maxErr <= quant.Tolerance(ebAbs, maxAbs), nil
}
