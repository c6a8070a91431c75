// Package core assembles the full error-bounded lossy compressor: dual
// quantization → prediction (Lorenzo baseline, or the paper's hybrid
// cross-field prediction) → canonical Huffman coding → lossless backend →
// self-describing container.
//
// Two compression entry points exist:
//
//   - CompressBaseline: the paper's baseline — SZ3 with the Lorenzo
//     predictor, modified to dual quantization (Section IV-A2).
//   - CompressHybrid: the paper's contribution — CFNN cross-field difference
//     predictions fused with Lorenzo by the learned hybrid model
//     (Sections III-B/C/D).
//
// Decompress reverses either. For hybrid blobs the caller must supply the
// same decompressed anchor fields the compressor used; everything else
// (model weights, hybrid weights, Huffman table) travels inside the blob
// and is charged to the compressed size.
//
// On top of the monolithic pipeline sits the chunked engine
// (CompressChunked/CompressChunkedTo): fields split into independent
// slabs, compressed in parallel into a random-access CFC2 container, with
// CFNN inference run once per field by a shared segmented pass (see
// inference.go). Decode runs each chunk's inference inside that chunk's
// decode, in one chunk-sized arena per worker, to the same bits.
//
// Decoding is one call, Decode, over an io.ReaderAt; an in-memory blob is
// a bytes.Reader, and Decompress is Decode's whole-field, full-fidelity
// request. A Request picks the chunk (Whole, or one chunk read without
// any other chunk's payload), the level (LevelFull, or a preview of a
// layered payload), whole or slab anchors (the serving layer's form,
// which never materializes whole anchors) and the worker bound. Under it
// runs one parse route: a CFC2 index parsed to end exactly at the
// payload's size, and readPayload, which reads a chunk whole under its
// index checksum or, for a preview, only the prefix its layer CRCs cover.
// Every payload then ends in one reconstruct engine, decodePayload →
// reconstructBlocks (blocks.go): every payload version parses into one
// descriptor, a plain sequential payload being one block and a layered
// payload's level a plan for the per-block dequantize step. On the encode
// side, one prediction step (predict) and one container assembly
// (assemble) serve plain and layered payloads; block-coded payloads are
// decode-only.
package core

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/container"
	"repro/internal/lossless"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// Options configures compression.
type Options struct {
	// Bound is the error bound (required).
	Bound quant.Bound
	// Backend is the lossless stage; nil means lossless.Default() (flate).
	Backend lossless.Backend
	// MaxSymbols caps the Huffman alphabet; 0 means the SZ-style default.
	MaxSymbols int
	// HybridSamples is the sample count for the hybrid least-squares fit;
	// 0 means 20000.
	HybridSamples int
	// Seed drives hybrid-fit sampling (deterministic for any fixed value).
	Seed int64
	// AnchorNames are recorded in the container for bookkeeping.
	AnchorNames []string
	// Arena, when non-nil, supplies reusable CFNN inference scratch so
	// repeated compressions (e.g. the fields of one dataset archive)
	// allocate buffers once. It never affects output bytes. An arena is
	// mutable scratch: do not share one across concurrent compressions.
	Arena *nn.Arena
	// Stages, when non-nil, accumulates per-stage wall time (inference,
	// quantize, predict, huffman, flate) across the compression. It is
	// safe to share one Stages across the concurrent chunk workers of a
	// chunked compression; it never affects output bytes.
	Stages *obs.Stages
	// Progressive, when non-nil, writes layered payloads for progressive
	// multi-resolution retrieval (see progressive.go). Containers become
	// CFC1 v3 / CFC2 v4.
	Progressive *ProgressiveSpec

	// prog is the resolved layering plan, derived once per field from
	// Progressive and the resolved error bound so every chunk of a chunked
	// compression shares identical layer geometry.
	prog *progPlan
}

func (o Options) withDefaults() Options {
	if o.Backend == nil {
		o.Backend = lossless.Default()
	}
	if o.HybridSamples <= 0 {
		o.HybridSamples = 20000
	}
	return o
}

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

// Result is a compressed field.
type Result struct {
	Blob  []byte
	Stats Stats
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
