// Progressive (layered) compression: the encode half of the CFC1 v3
// layered-payload mode.
//
// The prequant integers q split into a base layer qb = q >> shift — run
// through the ordinary prediction pipeline (Lorenzo or hybrid), so the
// base layer is simply the existing codec operating at an effectively
// relaxed bound — plus refinement bit planes of the dropped low bits,
// most-significant plane first. Every layer is Huffman-coded and
// lossless-compressed independently with its own CRC, so any payload
// prefix decodes to a field whose max error is provably within the deepest
// consumed layer's recorded bound, and the full prefix recovers q exactly:
// bit-identical floats to the non-progressive pipeline.
//
// For hybrid payloads the CFNN difference predictions (prequant units)
// scale by exactly 2^-shift — a power-of-two float64 scaling, so the
// decoder reproduces the compressor's base-layer predictions bit for bit
// from the same full-fidelity anchors.
package core

import (
	"fmt"
	"hash/crc32"
	"math"

	"repro/internal/container"
	"repro/internal/lossless"
	"repro/internal/parallel"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// ProgressiveSpec configures layered compression.
type ProgressiveSpec struct {
	// Levels is the total level count including the base layer; 0 means 2
	// when PreviewBound is set, otherwise Levels is required (>= 2).
	// Each refinement level adds bit planes, so deeper levels cost more
	// refinement bits; at most 8 levels.
	Levels int
	// PreviewBound, when > 0, is the target error bound of the base layer,
	// expressed in the same mode as EncodeRequest.Bound (absolute or
	// range-relative). The layering drops the largest bit count whose
	// provable base bound eb·(1+2^shift) still meets it; PreviewBound must
	// exceed 3× the full bound for at least one droppable bit.
	PreviewBound float64
}

// progPlan is the resolved layer geometry: how many low bits the base
// layer drops and how they split across refinement planes (MSB first).
type progPlan struct {
	shift int
	bits  []int // per refinement layer, most-significant plane first
}

// levels returns the total level count including the base layer.
func (p *progPlan) levels() int { return len(p.bits) + 1 }

// remaining returns the refinement bits still unknown after level.
func (p *progPlan) remaining(level int) int {
	r := p.shift
	for l := 0; l < level && l < len(p.bits); l++ {
		r -= p.bits[l]
	}
	return r
}

// defaultPlaneBits is how many refinement bits each extra level adds when
// no PreviewBound pins the shift: each level quarters the error interval.
const defaultPlaneBits = 2

// resolveProg derives the layer plan from p (nil when p is nil), once per
// field, so every chunk shares identical layer geometry.
func resolveProg(p *ProgressiveSpec, bound quant.Bound) (*progPlan, error) {
	if p == nil {
		return nil, nil
	}
	levels := p.Levels
	if levels == 0 && p.PreviewBound > 0 {
		levels = 2
	}
	if levels < 2 || levels > 8 {
		return nil, fmt.Errorf("core: progressive levels %d out of [2,8]", levels)
	}
	shift := defaultPlaneBits * (levels - 1)
	if p.PreviewBound > 0 {
		// PreviewBound and Bound.Value share a mode, so their ratio equals
		// the ratio of resolved absolute bounds — no field statistics
		// needed. The provable base bound is eb·(1+2^shift) ≤ preview.
		ratio := p.PreviewBound / bound.Value
		if !(ratio > 3) || math.IsInf(ratio, 0) || math.IsNaN(ratio) {
			return nil, fmt.Errorf("core: preview bound %g must exceed 3x the full bound %g", p.PreviewBound, bound.Value)
		}
		shift = int(math.Floor(math.Log2(ratio - 1)))
	}
	if shift > container.MaxLayerShift {
		shift = container.MaxLayerShift
	}
	if shift < levels-1 {
		return nil, fmt.Errorf("core: %d refinement bits cannot fill %d levels (preview bound too tight for Levels)", shift, levels-1)
	}
	// Split the shift across the refinement planes, extras to the
	// most-significant planes (decoded first, so early refinements shrink
	// the bound fastest).
	bits := make([]int, levels-1)
	base, extra := shift/(levels-1), shift%(levels-1)
	for i := range bits {
		bits[i] = base
		if i < extra {
			bits[i]++
		}
	}
	return &progPlan{shift: shift, bits: bits}, nil
}

// encodeLayerCodes entropy-codes one refinement plane's symbol stream and
// runs the lossless backend, returning the marshaled Huffman table, the
// encoded payload, and the raw (pre-lossless) length.
func encodeLayerCodes(codes []int32) (table, enc []byte, rawLen int, err error) {
	codec, raw, err := entropyCode(codes)
	if err != nil {
		return nil, nil, 0, err
	}
	if enc, err = lossless.Default().Compress(raw); err != nil {
		return nil, nil, 0, err
	}
	if table, err = codec.MarshalBinary(); err != nil {
		return nil, nil, 0, err
	}
	return table, enc, len(raw), nil
}

// scaleDQ returns dq scaled by 2^-shift — the prequant-unit difference
// predictions seen by the base layer, whose integers are q >> shift. The
// scale is an exact power of two, so compressor and decompressor agree bit
// for bit.
func scaleDQ(dq [][]float64, shift int) [][]float64 {
	if dq == nil {
		return nil
	}
	s := math.Ldexp(1, -shift)
	out := make([][]float64, len(dq))
	for a := range dq {
		sc := make([]float64, len(dq[a]))
		src := dq[a]
		parallel.ForRange(len(src), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				sc[i] = src[i] * s
			}
		})
		out[a] = sc
	}
	return out
}

// layered is the layered pipeline shared by the baseline and
// cross-field paths: split the prequant integers q of chunk field, run
// the one prediction step on the base, bit-plane the remainder, and
// assemble a CFC1 v3 payload. dq (non-nil only for cross-field methods)
// arrives in full-scale prequant units.
func (e *encoder) layered(field *tensor.Tensor, q []int32, dq [][]float64) ([]byte, Stats, error) {
	plan := e.prog
	shift := plan.shift
	n := len(q)
	qb := make([]int32, n)
	rem := make([]int32, n)
	parallel.ForRange(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			// Arithmetic shift floors toward -inf, so rem is always in
			// [0, 2^shift) regardless of sign.
			qb[i] = q[i] >> shift
			rem[i] = q[i] - qb[i]<<shift
		}
	})

	endPredict := e.req.Stages.Timer("predict")
	codes, hybrid, err := predict(qb, field.Shape(), scaleDQ(dq, shift), e.method)
	endPredict()
	if err != nil {
		return nil, Stats{}, err
	}

	// Entropy-code each refinement plane independently; assemble codes
	// the base layer.
	endHuff := e.req.Stages.Timer("huffman")
	layers := &container.LayerSection{Shift: shift, Layers: make([]container.Layer, plan.levels())}
	data := make([][]byte, plan.levels())
	plane := make([]int32, n)
	for l, b := range plan.bits {
		r := plan.remaining(l + 1)
		mask := int32(1)<<b - 1
		parallel.ForRange(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				plane[i] = (rem[i] >> r) & mask
			}
		})
		table, enc, raw, err := encodeLayerCodes(plane)
		if err != nil {
			endHuff()
			return nil, Stats{}, err
		}
		layers.Layers[l+1] = container.Layer{Bits: b, Table: table, RawLen: raw, EncLen: len(enc), CRC: crc32.ChecksumIEEE(enc)}
		data[l+1] = enc
	}
	endHuff()

	// Per-level achieved errors, recorded in the layer table so serving
	// can advertise measured (not just provable) bounds per level.
	for l := range layers.Layers {
		layers.Layers[l].MaxErr = achievedMaxErr(field.Data(), q, e.eb, plan.remaining(l))
	}
	maxErr := layers.Layers[len(layers.Layers)-1].MaxErr
	return e.assemble(field, codes, hybrid, maxErr, layers, data)
}
