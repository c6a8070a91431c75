// The paper's hybrid predictor (Section III-C), once: a learned linear
// fusion of the Lorenzo prediction and one cross-field prediction per
// axis. The encoder fits it and codes residuals against it, the decoder
// reverses those residuals, and the paper's figures plot it, all through
// this file: one per-point feature builder (Features) and one prediction
// kernel run in the encode or the decode direction. Predictor-based
// compressors are correct only when both sides evaluate the identical
// predictor; here they run the same code.
package core

import (
	"fmt"
	"math/rand"

	"repro/internal/container"
	"repro/internal/parallel"
	"repro/internal/predictor"
)

// Features builds the hybrid's candidate predictions over one chunk's
// prequant values: the Lorenzo prediction (hybrid method only), then one
// cross-field prediction per axis, the causal neighbor along the axis plus
// the CFNN's difference prediction in prequant units.
type Features struct {
	q    []int32
	dims []int       // rank 2 or 3
	dq   [][]float64 // one per axis, prequant units
	lor  bool        // Lorenzo leads the row: the hybrid, not cross-only
}

// NewFeatures returns the feature builder of method (container.MethodHybrid
// or container.MethodCrossOnly) over the rank-2 or rank-3 prequant values q
// with the cross-field difference predictions dq, one per axis.
func NewFeatures(q []int32, dims []int, dq [][]float64, method container.Method) (*Features, error) {
	if len(dims) != 2 && len(dims) != 3 {
		return nil, fmt.Errorf("core: cross-field prediction needs rank 2 or 3, got %d", len(dims))
	}
	n := 1
	for _, d := range dims {
		n *= d
	}
	if n != len(q) {
		return nil, fmt.Errorf("core: dims %v != len %d", dims, len(q))
	}
	if len(dq) != len(dims) {
		return nil, fmt.Errorf("core: %d dq fields for rank %d", len(dq), len(dims))
	}
	for a, d := range dq {
		if len(d) != n {
			return nil, fmt.Errorf("core: dq field %d has %d values, want %d", a, len(d), n)
		}
	}
	f := &Features{q: q, dims: dims, dq: dq}
	switch method {
	case container.MethodHybrid:
		f.lor = true
	case container.MethodCrossOnly:
	default:
		return nil, fmt.Errorf("core: method %v has no hybrid features", method)
	}
	return f, nil
}

// Len returns the number of features per point: one per axis, plus one
// for Lorenzo.
func (f *Features) Len() int {
	if f.lor {
		return len(f.dims) + 1
	}
	return len(f.dims)
}

// Row writes the features at flat point p, in [0, len(q)), into row,
// which holds Len values, and returns row.
func (f *Features) Row(row []float64, p int) []float64 {
	nx := f.dims[len(f.dims)-1]
	if len(f.dims) == 2 {
		i := p / nx
		f.at2D(row, i, p-i*nx, p, zeroOrigin)
		return row
	}
	plane := f.dims[1] * nx
	k := p / plane
	r := p - k*plane
	i := r / nx
	f.at3D(row, k, i, r-i*nx, p, zeroOrigin)
	return row
}

// at2D writes the features at (i,j), flat p, with the causal horizon at
// org: zero is the seam-crossing prediction, a block origin the seam-reset
// one of block-independent payloads.
func (f *Features) at2D(row []float64, i, j, p int, org []int) {
	nx, k := f.dims[1], 0
	if f.lor {
		row[0] = float64(predictor.LorenzoPred2DFrom(f.q, nx, i, j, org[0], org[1]))
		k = 1
	}
	row[k] = predictor.CrossFieldPredFrom(f.q, p, nx, i, org[0], f.dq[0][p])
	row[k+1] = predictor.CrossFieldPredFrom(f.q, p, 1, j, org[1], f.dq[1][p])
}

// at3D is at2D for rank 3, at (k,i,j).
func (f *Features) at3D(row []float64, k, i, j, p int, org []int) {
	ny, nx, n := f.dims[1], f.dims[2], 0
	if f.lor {
		row[0] = float64(predictor.LorenzoPred3DFrom(f.q, ny, nx, k, i, j, org[0], org[1], org[2]))
		n = 1
	}
	row[n] = predictor.CrossFieldPredFrom(f.q, p, ny*nx, k, org[0], f.dq[0][p])
	row[n+1] = predictor.CrossFieldPredFrom(f.q, p, nx, i, org[1], f.dq[1][p])
	row[n+2] = predictor.CrossFieldPredFrom(f.q, p, 1, j, org[2], f.dq[2][p])
}

// Fit least-squares-fits the hybrid weights the way the encoder does: on
// min(hybridSamples, n) points drawn serially from hybridSeed, their
// features built in parallel. Only the sampled points' features are ever
// built, so the fit holds Len+1 sample columns and nothing per point.
func (f *Features) Fit() (*predictor.Hybrid, error) {
	n := len(f.q)
	samples := min(hybridSamples, n)
	nf := f.Len()
	back := make([]float64, (nf+1)*samples)
	cols := make([][]float64, nf)
	for k := range cols {
		cols[k] = back[k*samples : (k+1)*samples]
	}
	// The target column holds each sample's point index until that
	// sample's features are built: no index array.
	target := back[nf*samples:]
	rng := rand.New(rand.NewSource(hybridSeed))
	for s := range target {
		target[s] = float64(rng.Intn(n))
	}
	parallel.ForRange(samples, func(lo, hi int) {
		var buf [4]float64
		row := buf[:nf]
		for s := lo; s < hi; s++ {
			p := int(target[s])
			f.Row(row, p)
			for k, v := range row {
				cols[k][s] = v
			}
			target[s] = float64(f.q[p])
		}
	})
	return predictor.Fit(cols, target)
}

// Predict is the codec's prediction from one feature row: h over row,
// clamped to ±maxPred and rounded half away from zero, in prequant steps.
func Predict(h *predictor.Hybrid, row []float64) int32 {
	return int32(roundHalfAway(clampPred(h.Apply(row))))
}

// codes returns the residual codes of the prequant values against the
// hybrid h: the decoder's kernel run in the encode direction, slabs of the
// slowest axis in parallel since every value is known up front.
func (f *Features) codes(h *predictor.Hybrid) []int32 {
	codes := make([]int32, len(f.q))
	if len(codes) == 0 {
		return codes
	}
	kn := newKernel(f, h)
	slab := len(codes) / f.dims[0]
	parallel.ForRange(f.dims[0], func(lo, hi int) {
		var blo, bhi [3]int
		copy(bhi[:], f.dims)
		blo[0], bhi[0] = lo, hi
		kn.block(codes[lo*slab:hi*slab], blo[:len(f.dims)], bhi[:len(f.dims)], zeroOrigin, false)
	})
	return codes
}

// kernel is the hybrid prediction with its weights hoisted: the one
// per-point arithmetic of the encoder's codes and the decoder's
// reconstruct. A point whose causal neighbors all lie past the horizon
// takes the interior path, which reads them directly in
// predictor.Hybrid.Apply's accumulation order; any other point builds its
// feature row and goes through Predict.
// TestHybridFeaturesMatchDecoderPrediction pins both paths to Row and
// Predict at every point.
type kernel struct {
	*Features
	h    predictor.Hybrid
	wLor float64    // the Lorenzo weight; unused cross-only
	w    [3]float64 // the weight of each axis's cross-field prediction
}

func newKernel(f *Features, h *predictor.Hybrid) *kernel {
	kn := &kernel{Features: f, h: *h}
	ws := h.W
	if f.lor {
		kn.wLor, ws = ws[0], ws[1:]
	}
	copy(kn.w[:], ws)
	return kn
}

// edge2D is the prediction at (i,j), flat p, through the feature row.
func (kn *kernel) edge2D(i, j, p int, org []int) int32 {
	var buf [4]float64
	row := buf[:kn.Len()]
	kn.at2D(row, i, j, p, org)
	return Predict(&kn.h, row)
}

// edge3D is edge2D for rank 3.
func (kn *kernel) edge3D(k, i, j, p int, org []int) int32 {
	var buf [4]float64
	row := buf[:kn.Len()]
	kn.at3D(row, k, i, j, p, org)
	return Predict(&kn.h, row)
}

// block runs the prediction over the box [lo, hi) in raster order with
// the causal horizon at org. decode reconstructs, q[p] = codes[c] + pred,
// each value read by the points after it; otherwise it encodes the known
// values, codes[c] = q[p] − pred. codes holds the box's points in raster
// order.
func (kn *kernel) block(codes []int32, lo, hi, org []int, decode bool) {
	if len(kn.dims) == 2 {
		kn.block2D(codes, lo, hi, org, decode)
	} else {
		kn.block3D(codes, lo, hi, org, decode)
	}
}

func (kn *kernel) block2D(codes []int32, lo, hi, org []int, decode bool) {
	q, nx := kn.q, kn.dims[1]
	dq0, dq1 := kn.dq[0], kn.dq[1]
	lor, wl, w1, w2, bias := kn.lor, kn.wLor, kn.w[0], kn.w[1], kn.h.Bias
	c := 0
	for i := lo[0]; i < hi[0]; i++ {
		base, j := i*nx, lo[1]
		if i > org[0] {
			if j == org[1] {
				kn.put(codes, c, base+j, kn.edge2D(i, j, base+j, org), decode)
				c, j = c+1, j+1
			}
			for ; j < hi[1]; j++ {
				p := base + j
				acc := bias
				if lor {
					l := int64(q[p-nx]) + int64(q[p-1]) - int64(q[p-nx-1])
					acc += float64(wl * float64(l))
				}
				acc += float64(w1 * (float64(q[p-nx]) + dq0[p]))
				acc += float64(w2 * (float64(q[p-1]) + dq1[p]))
				pred := int32(roundHalfAway(clampPred(acc)))
				if decode {
					q[p] = codes[c] + pred
				} else {
					codes[c] = q[p] - pred
				}
				c++
			}
		}
		for ; j < hi[1]; j++ {
			kn.put(codes, c, base+j, kn.edge2D(i, j, base+j, org), decode)
			c++
		}
	}
}

func (kn *kernel) block3D(codes []int32, lo, hi, org []int, decode bool) {
	q, ny, nx := kn.q, kn.dims[1], kn.dims[2]
	snynx := ny * nx
	dq0, dq1, dq2 := kn.dq[0], kn.dq[1], kn.dq[2]
	lor, wl, w1, w2, w3, bias := kn.lor, kn.wLor, kn.w[0], kn.w[1], kn.w[2], kn.h.Bias
	c := 0
	for k := lo[0]; k < hi[0]; k++ {
		for i := lo[1]; i < hi[1]; i++ {
			base, j := (k*ny+i)*nx, lo[2]
			if k > org[0] && i > org[1] {
				if j == org[2] {
					kn.put(codes, c, base+j, kn.edge3D(k, i, j, base+j, org), decode)
					c, j = c+1, j+1
				}
				for ; j < hi[2]; j++ {
					p := base + j
					acc := bias
					if lor {
						l := int64(q[p-snynx]) + int64(q[p-nx]) + int64(q[p-1]) -
							int64(q[p-snynx-nx]) - int64(q[p-snynx-1]) - int64(q[p-nx-1]) +
							int64(q[p-snynx-nx-1])
						acc += float64(wl * float64(l))
					}
					acc += float64(w1 * (float64(q[p-snynx]) + dq0[p]))
					acc += float64(w2 * (float64(q[p-nx]) + dq1[p]))
					acc += float64(w3 * (float64(q[p-1]) + dq2[p]))
					pred := int32(roundHalfAway(clampPred(acc)))
					if decode {
						q[p] = codes[c] + pred
					} else {
						codes[c] = q[p] - pred
					}
					c++
				}
			}
			for ; j < hi[2]; j++ {
				kn.put(codes, c, base+j, kn.edge3D(k, i, j, base+j, org), decode)
				c++
			}
		}
	}
}

// put applies the prediction at flat p in the kernel's direction.
func (kn *kernel) put(codes []int32, c, p int, pred int32, decode bool) {
	if decode {
		kn.q[p] = codes[c] + pred
	} else {
		codes[c] = kn.q[p] - pred
	}
}
