// The reconstruct engine: every payload decodes here, block by block.
//
// The Lorenzo dependency chain binds a plain payload's decode to one core:
// every point waits on its causal neighbors. Dual quantization guarantees
// the compressor sees exactly the integers the decompressor will
// reconstruct, which is the property that lets the chain be cut at block
// boundaries without touching the error bound. Block-coded payloads
// (CFC1 v2) were written that way: the prequant grid partitioned into
// fixed decode blocks, each block's residuals entropy-coded into its own
// byte-aligned Huffman segment (the block table in the payload records
// the segment lengths), in one of two modes:
//
//   - Wavefront (container.BlockWavefront): residuals are the ordinary
//     seam-crossing predictions, merely reordered block-major. A block
//     depends only on the already-reconstructed seam planes of its causal
//     neighbor blocks, so blocks on the same anti-diagonal front decode in
//     parallel; fronts run in sequence. Per-point predictions are pure
//     functions of causal prequant values (no floating-point state
//     accumulates across points), so the output is the same at any block
//     size or worker count.
//   - Block-independent (container.BlockIndependent): predictions reset at
//     block borders (zeros outside the block, exactly the grid-border
//     convention), so every block decodes with zero dependencies.
//     Reconstruction is still exact: codes are exact integer residuals
//     against the reset predictions.
//
// The encoder no longer writes block-coded payloads — parallel decode
// comes from chunks — but committed ones still decode here.
//
// Every CFC1 payload version parses into one descriptor, payloadPlan, and
// runs on the one engine, reconstructBlocks. A plain (v1) payload is one
// wavefront block spanning the dims, with the whole code stream as its
// segment. A layered (v3) payload's base layer is that same block over
// the cross-field predictions scaled by 2^-shift; its level is a
// dequantize plan — the refinement planes to merge and the midpoint to
// fill — applied per block right after reconstruction.
package core

import (
	"context"
	"fmt"
	"math"
	"sync"

	"repro/internal/bitstream"
	"repro/internal/container"
	"repro/internal/huffman"
	"repro/internal/parallel"
	"repro/internal/predictor"
	"repro/internal/quant"
)

// blockGeom is the decode-block partitioning of one field or chunk.
type blockGeom struct {
	dims  []int // field dims, rank 1-3
	edges []int // block edge per axis (clamped to the dim)
	nb    []int // blocks per axis
	total int
}

func geomFor(dims, edges []int) (*blockGeom, error) {
	if len(edges) != len(dims) {
		return nil, fmt.Errorf("core: %d block edges for rank %d", len(edges), len(dims))
	}
	g := &blockGeom{dims: dims, edges: make([]int, len(dims)), nb: make([]int, len(dims)), total: 1}
	for a, d := range dims {
		e := edges[a]
		if e <= 0 {
			return nil, fmt.Errorf("core: block edge %d", e)
		}
		if e > d {
			e = d
		}
		g.edges[a] = e
		g.nb[a] = (d + e - 1) / e
		g.total *= g.nb[a]
	}
	return g, nil
}

// bounds returns block b's half-open coordinate box in block-raster order
// (slowest axis first, matching the grid's raster order).
func (g *blockGeom) bounds(b int) (lo, hi []int) {
	rank := len(g.nb)
	lo = make([]int, rank)
	hi = make([]int, rank)
	for a := rank - 1; a >= 0; a-- {
		c := b % g.nb[a]
		b /= g.nb[a]
		lo[a] = c * g.edges[a]
		hi[a] = lo[a] + g.edges[a]
		if hi[a] > g.dims[a] {
			hi[a] = g.dims[a]
		}
	}
	return lo, hi
}

// fronts groups block ids by anti-diagonal front (the sum of their block
// coordinates). A block's causal neighbor blocks all live on strictly
// earlier fronts, so blocks within one front decode concurrently and
// fronts run with a barrier between them.
func (g *blockGeom) fronts() [][]int {
	maxd := 0
	for _, n := range g.nb {
		maxd += n - 1
	}
	fronts := make([][]int, maxd+1)
	for b := 0; b < g.total; b++ {
		d, rem := 0, b
		for a := len(g.nb) - 1; a >= 0; a-- {
			d += rem % g.nb[a]
			rem /= g.nb[a]
		}
		fronts[d] = append(fronts[d], b)
	}
	return fronts
}

func boxVoxels(lo, hi []int) int {
	n := 1
	for a := range lo {
		n *= hi[a] - lo[a]
	}
	return n
}

// hybridPredAt2D evaluates the hybrid (or cross-only, hasLor=false)
// prediction at (i,j) with the causal horizon at org — org zero is the
// seam-crossing prediction, org at a block origin the seam-reset one. The
// accumulation order matches predictor.Hybrid.Apply exactly, which is
// what keeps block decode bit-identical to the sequential reference.
func hybridPredAt2D(q []int32, nx int, dq0, dq1 []float64, w []float64, bias float64, hasLor bool, i, j, p int, org []int) int32 {
	acc := bias
	f := 0
	if hasLor {
		acc += float64(w[0] * float64(predictor.LorenzoPred2DFrom(q, nx, i, j, org[0], org[1])))
		f = 1
	}
	acc += float64(w[f] * predictor.CrossFieldPredFrom(q, p, nx, i, org[0], dq0[p]))
	acc += float64(w[f+1] * predictor.CrossFieldPredFrom(q, p, 1, j, org[1], dq1[p]))
	return int32(roundHalfAway(clampPred(acc)))
}

// hybridPredAt3D is hybridPredAt2D for rank 3.
func hybridPredAt3D(q []int32, ny, nx int, dq0, dq1, dq2 []float64, w []float64, bias float64, hasLor bool, k, i, j, p int, org []int) int32 {
	acc := bias
	f := 0
	if hasLor {
		acc += float64(w[0] * float64(predictor.LorenzoPred3DFrom(q, ny, nx, k, i, j, org[0], org[1], org[2])))
		f = 1
	}
	acc += float64(w[f] * predictor.CrossFieldPredFrom(q, p, ny*nx, k, org[0], dq0[p]))
	acc += float64(w[f+1] * predictor.CrossFieldPredFrom(q, p, nx, i, org[1], dq1[p]))
	acc += float64(w[f+2] * predictor.CrossFieldPredFrom(q, p, 1, j, org[2], dq2[p]))
	return int32(roundHalfAway(clampPred(acc)))
}

// payloadPlan is the decode descriptor every CFC1 payload version parses
// into (planPayload) and the one input of the engine, reconstructBlocks.
type payloadPlan struct {
	dims   []int
	method container.Method
	hybrid []float64 // hybrid weights, then the bias; unused by the baseline
	eb     float64   // the payload's absolute bound: one prequant step is 2·eb

	codec *huffman.Codec
	raw   []byte // the base code stream after the lossless stage
	geom  *blockGeom
	offs  []int // block b's segment is raw[offs[b]:offs[b+1]]
	indep bool  // block-independent: each block's horizon is its origin

	dq [][]float64 // cross-field predictions in base-layer prequant units

	// Layered dequantization: a value is q<<shift plus every decoded
	// refinement plane at its bit position plus mid, the midpoint of the
	// bits still unknown. All zero for a non-layered payload.
	shift       int
	planes      [][]int32
	planeShifts []int
	mid         int32

	achieved float64 // recorded max error of the decoded level; NaN if not layered
}

// newPlan checks a base code stream against the blob's block table — or,
// for a payload without one, against the one block spanning the dims —
// and the prediction parameters against the method, and returns the
// descriptor of a non-layered decode, still without its cross-field
// predictions (reconstruct takes them).
func newPlan(b *container.Blob, raw []byte, codec *huffman.Codec) (*payloadPlan, error) {
	p := &payloadPlan{dims: b.Dims, method: b.Method, hybrid: b.Hybrid, eb: b.AbsEB,
		codec: codec, raw: raw, achieved: math.NaN()}
	edges, segLens := b.Dims, []int{len(raw)}
	if bs := b.Blocks; bs != nil {
		edges, segLens = bs.Edges, bs.SegLens
		p.indep = bs.Mode == container.BlockIndependent
	}
	g, err := geomFor(b.Dims, edges)
	if err != nil {
		return nil, err
	}
	if g.total != len(segLens) {
		return nil, fmt.Errorf("%w: %d block segments, geometry implies %d", container.ErrCorrupt, len(segLens), g.total)
	}
	p.geom = g
	p.offs = make([]int, g.total+1)
	for i, l := range segLens {
		p.offs[i+1] = p.offs[i] + l
	}
	if p.offs[g.total] != len(raw) {
		return nil, fmt.Errorf("%w: block segments sum to %d bytes, payload is %d", container.ErrCorrupt, p.offs[g.total], len(raw))
	}
	rank := len(b.Dims)
	switch b.Method {
	case container.MethodBaseline:
	case container.MethodHybrid, container.MethodCrossOnly:
		if rank != 2 && rank != 3 {
			return nil, fmt.Errorf("core: cross-field rank %d unsupported", rank)
		}
		numFeats := rank
		if b.Method == container.MethodHybrid {
			numFeats++
		}
		if len(b.Hybrid) != numFeats+1 {
			return nil, fmt.Errorf("core: %d hybrid params, want %d", len(b.Hybrid), numFeats+1)
		}
	default:
		return nil, fmt.Errorf("core: unknown method %v", b.Method)
	}
	return p, nil
}

// reconstruct runs the engine over the plan into out with the
// cross-field predictions dq (prequant units; nil for a baseline
// payload), scaled to the base layer of a layered payload.
func (p *payloadPlan) reconstruct(ctx context.Context, dq [][]float64, out []float32, workers int) error {
	if p.method != container.MethodBaseline && len(dq) != len(p.dims) {
		return fmt.Errorf("core: %d dq fields for rank %d", len(dq), len(p.dims))
	}
	if p.shift > 0 {
		dq = scaleDQ(dq, p.shift)
	}
	p.dq = dq
	return reconstructBlocks(ctx, make([]int32, len(out)), out, p, workers)
}

// zeroOrigin is the causal horizon of wavefront blocks: the grid origin.
var zeroOrigin = []int{0, 0, 0}

// reconstructBlocks is the reconstruct engine: it decodes the plan into
// q and dequantizes into vals, scheduling blocks by mode — all at once
// for block-independent payloads, front by front for wavefront ones (the
// barrier between fronts is what publishes a front's seam planes to the
// next). A plain payload is one block on one front. workers <= 0 means
// GOMAXPROCS.
//
// ctx is checked per block and between wavefront fronts: a canceled
// serving request stops the decode at the next boundary instead of
// completing work nobody will read.
func reconstructBlocks(ctx context.Context, q []int32, vals []float32, p *payloadPlan, workers int) error {
	g := p.geom
	if workers <= 0 {
		workers = parallel.Workers()
	}
	rank := len(p.dims)
	hasLor := p.method == container.MethodHybrid
	decodeBlock := func(bi int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		lo, hi := g.bounds(bi)
		sp := blockCodes(boxVoxels(lo, hi))
		defer codeScratch.Put(sp)
		codes := *sp
		if err := p.codec.DecodeInto(bitstream.NewReader(p.raw[p.offs[bi]:p.offs[bi+1]]), codes); err != nil {
			return fmt.Errorf("block %d: %w", bi, err)
		}
		org := zeroOrigin[:rank]
		if p.indep {
			org = lo
		}
		if p.method == container.MethodBaseline {
			reconstructBaselineBlock(q, codes, p.dims, lo, hi, org)
		} else {
			reconstructCrossBlock(q, codes, p.dims, lo, hi, org, p.dq, p.hybrid, hasLor)
		}
		p.dequantizeBlock(vals, q, lo, hi)
		return nil
	}
	if p.indep {
		return parallel.ForErr(workers, g.total, decodeBlock)
	}
	for _, front := range g.fronts() {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := parallel.ForErr(workers, len(front), func(x int) error {
			return decodeBlock(front[x])
		}); err != nil {
			return err
		}
	}
	return nil
}

// codeScratch recycles the per-block code buffers of reconstructBlocks
// across decodes.
var codeScratch sync.Pool

// blockCodes returns a recycled code buffer of length n, or a new one
// when the recycled buffer is too small.
func blockCodes(n int) *[]int32 {
	if sp, _ := codeScratch.Get().(*[]int32); sp != nil && cap(*sp) >= n {
		*sp = (*sp)[:n]
		return sp
	}
	s := make([]int32, n)
	return &s
}

// dequantizeBlock dequantizes a block's row spans right after its
// reconstruction, while the prequant values are cache-hot.
func (p *payloadPlan) dequantizeBlock(vals []float32, q []int32, lo, hi []int) {
	switch len(p.dims) {
	case 1:
		p.dequantizeSpan(vals, q, lo[0], hi[0])
	case 2:
		nx := p.dims[1]
		for i := lo[0]; i < hi[0]; i++ {
			p.dequantizeSpan(vals, q, i*nx+lo[1], i*nx+hi[1])
		}
	default:
		ny, nx := p.dims[1], p.dims[2]
		for k := lo[0]; k < hi[0]; k++ {
			for i := lo[1]; i < hi[1]; i++ {
				base := (k*ny + i) * nx
				p.dequantizeSpan(vals, q, base+lo[2], base+hi[2])
			}
		}
	}
}

// dequantizeSpan maps the flat range [lo, hi) of reconstructed prequant
// values to floats. A non-layered payload computes float32(float64(q)·2eb),
// quant.Dequantize's arithmetic. A layered one shifts the base back up,
// merges the decoded refinement planes below it and fills the midpoint
// into the bits still unknown.
func (p *payloadPlan) dequantizeSpan(vals []float32, q []int32, lo, hi int) {
	if p.shift == 0 {
		quant.DequantizeSpan(vals, q, p.eb, lo, hi)
		return
	}
	s := 2 * p.eb
	for i := lo; i < hi; i++ {
		v := q[i] << p.shift
		for k, pl := range p.planes {
			v += pl[i] << p.planeShifts[k]
		}
		vals[i] = float32(float64(v+p.mid) * s)
	}
}

// reconstructBaselineBlock reverses Lorenzo prediction over one block.
// org is the causal horizon: the grid origin for wavefront payloads
// (seam planes of neighbor blocks are already reconstructed), the block
// origin for independent payloads. Integer arithmetic is exact, so both
// match the sequential reference bit for bit.
func reconstructBaselineBlock(q, codes []int32, dims, lo, hi, org []int) {
	c := 0
	switch len(dims) {
	case 1:
		for i := lo[0]; i < hi[0]; i++ {
			q[i] = codes[c] + int32(predictor.LorenzoPred1DFrom(q, i, org[0]))
			c++
		}
	case 2:
		nx := dims[1]
		for i := lo[0]; i < hi[0]; i++ {
			base := i * nx
			j := lo[1]
			if i > org[0] {
				if j == org[1] {
					q[base+j] = codes[c] + int32(predictor.LorenzoPred2DFrom(q, nx, i, j, org[0], org[1]))
					c++
					j++
				}
				for ; j < hi[1]; j++ {
					p := base + j
					pred := int64(q[p-nx]) + int64(q[p-1]) - int64(q[p-nx-1])
					q[p] = codes[c] + int32(pred)
					c++
				}
			} else {
				for ; j < hi[1]; j++ {
					q[base+j] = codes[c] + int32(predictor.LorenzoPred2DFrom(q, nx, i, j, org[0], org[1]))
					c++
				}
			}
		}
	default:
		ny, nx := dims[1], dims[2]
		snynx := ny * nx
		for k := lo[0]; k < hi[0]; k++ {
			for i := lo[1]; i < hi[1]; i++ {
				base := (k*ny + i) * nx
				j := lo[2]
				if k > org[0] && i > org[1] {
					if j == org[2] {
						q[base+j] = codes[c] + int32(predictor.LorenzoPred3DFrom(q, ny, nx, k, i, j, org[0], org[1], org[2]))
						c++
						j++
					}
					for ; j < hi[2]; j++ {
						p := base + j
						pred := int64(q[p-snynx]) + int64(q[p-nx]) + int64(q[p-1]) -
							int64(q[p-snynx-nx]) - int64(q[p-snynx-1]) - int64(q[p-nx-1]) +
							int64(q[p-snynx-nx-1])
						q[p] = codes[c] + int32(pred)
						c++
					}
				} else {
					for ; j < hi[2]; j++ {
						q[base+j] = codes[c] + int32(predictor.LorenzoPred3DFrom(q, ny, nx, k, i, j, org[0], org[1], org[2]))
						c++
					}
				}
			}
		}
	}
}

// reconstructCrossBlock reverses the hybrid (or cross-only) prediction
// over one block. The interior fast path hoists the hybrid weights out of
// the loop and reads neighbors directly — no per-point feature row, no
// Apply call — while keeping the exact floating-point accumulation order
// of predictor.Hybrid.Apply, so the output stays bit-identical to the
// sequential reference (and, for wavefront payloads, to pre-v3 decodes).
func reconstructCrossBlock(q, codes []int32, dims, lo, hi, org []int, dq [][]float64, weights []float64, hasLor bool) {
	numFeats := len(weights) - 1
	w := weights[:numFeats]
	bias := weights[numFeats]
	c := 0
	if len(dims) == 2 {
		nx := dims[1]
		dq0, dq1 := dq[0], dq[1]
		var w0 float64
		f := 0
		if hasLor {
			w0 = w[0]
			f = 1
		}
		w1, w2 := w[f], w[f+1]
		for i := lo[0]; i < hi[0]; i++ {
			base := i * nx
			j := lo[1]
			if i > org[0] {
				if j == org[1] {
					p := base + j
					q[p] = codes[c] + hybridPredAt2D(q, nx, dq0, dq1, w, bias, hasLor, i, j, p, org)
					c++
					j++
				}
				for ; j < hi[1]; j++ {
					p := base + j
					acc := bias
					if hasLor {
						lor := int64(q[p-nx]) + int64(q[p-1]) - int64(q[p-nx-1])
						acc += float64(w0 * float64(lor))
					}
					acc += float64(w1 * (float64(q[p-nx]) + dq0[p]))
					acc += float64(w2 * (float64(q[p-1]) + dq1[p]))
					q[p] = codes[c] + int32(roundHalfAway(clampPred(acc)))
					c++
				}
			} else {
				for ; j < hi[1]; j++ {
					p := base + j
					q[p] = codes[c] + hybridPredAt2D(q, nx, dq0, dq1, w, bias, hasLor, i, j, p, org)
					c++
				}
			}
		}
		return
	}
	ny, nx := dims[1], dims[2]
	snynx := ny * nx
	dq0, dq1, dq2 := dq[0], dq[1], dq[2]
	var w0 float64
	f := 0
	if hasLor {
		w0 = w[0]
		f = 1
	}
	w1, w2, w3 := w[f], w[f+1], w[f+2]
	for k := lo[0]; k < hi[0]; k++ {
		for i := lo[1]; i < hi[1]; i++ {
			base := (k*ny + i) * nx
			j := lo[2]
			if k > org[0] && i > org[1] {
				if j == org[2] {
					p := base + j
					q[p] = codes[c] + hybridPredAt3D(q, ny, nx, dq0, dq1, dq2, w, bias, hasLor, k, i, j, p, org)
					c++
					j++
				}
				for ; j < hi[2]; j++ {
					p := base + j
					acc := bias
					if hasLor {
						lor := int64(q[p-snynx]) + int64(q[p-nx]) + int64(q[p-1]) -
							int64(q[p-snynx-nx]) - int64(q[p-snynx-1]) - int64(q[p-nx-1]) +
							int64(q[p-snynx-nx-1])
						acc += float64(w0 * float64(lor))
					}
					acc += float64(w1 * (float64(q[p-snynx]) + dq0[p]))
					acc += float64(w2 * (float64(q[p-nx]) + dq1[p]))
					acc += float64(w3 * (float64(q[p-1]) + dq2[p]))
					q[p] = codes[c] + int32(roundHalfAway(clampPred(acc)))
					c++
				}
			} else {
				for ; j < hi[2]; j++ {
					p := base + j
					q[p] = codes[c] + hybridPredAt3D(q, ny, nx, dq0, dq1, dq2, w, bias, hasLor, k, i, j, p, org)
					c++
				}
			}
		}
	}
}
