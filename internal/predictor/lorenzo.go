// Package predictor implements the prediction stage of the compression
// pipeline: the classic Lorenzo predictor (the paper's baseline and one
// input of its hybrid model), the cross-field value predictors built from
// CFNN difference estimates, the learned hybrid combiner, and two SZ-family
// reference predictors (mean/regression and spline interpolation) used by
// the ablation benches.
//
// All prediction runs in the prequant integer domain (see internal/quant):
// thanks to dual quantization the compressor sees exactly the values the
// decompressor will reconstruct, so one prediction function serves both
// sides.
package predictor

import (
	"fmt"

	"repro/internal/parallel"
)

// LorenzoPred1D is the 1-layer Lorenzo prediction for index i of a 1D
// sequence: the previous value (0 outside the array).
func LorenzoPred1D(q []int32, i int) int64 {
	if i <= 0 {
		return 0
	}
	return int64(q[i-1])
}

// LorenzoPred2D is the 1-layer 2D Lorenzo prediction for position (i,j) of
// a ny×nx row-major grid: q(i-1,j) + q(i,j-1) − q(i-1,j-1), with zeros
// outside the grid.
func LorenzoPred2D(q []int32, nx, i, j int) int64 {
	var up, left, diag int64
	if i > 0 {
		up = int64(q[(i-1)*nx+j])
	}
	if j > 0 {
		left = int64(q[i*nx+j-1])
	}
	if i > 0 && j > 0 {
		diag = int64(q[(i-1)*nx+j-1])
	}
	return up + left - diag
}

// LorenzoPred3D is the 1-layer 3D Lorenzo prediction for (k,i,j) of a
// nz×ny×nx grid (inclusion–exclusion over the 7 causal neighbors).
func LorenzoPred3D(q []int32, ny, nx, k, i, j int) int64 {
	idx := func(k, i, j int) int64 {
		if k < 0 || i < 0 || j < 0 {
			return 0
		}
		return int64(q[(k*ny+i)*nx+j])
	}
	return idx(k-1, i, j) + idx(k, i-1, j) + idx(k, i, j-1) -
		idx(k-1, i-1, j) - idx(k-1, i, j-1) - idx(k, i-1, j-1) +
		idx(k-1, i-1, j-1)
}

// LorenzoAll computes the Lorenzo prediction for every point of a 1D/2D/3D
// prequant array in parallel (valid for the compression side, where all
// prequant values are known up front).
func LorenzoAll(q []int32, dims []int) ([]int64, error) {
	out := make([]int64, len(q))
	switch len(dims) {
	case 1:
		if dims[0] != len(q) {
			return nil, fmt.Errorf("predictor: dims %v != len %d", dims, len(q))
		}
		for i := range q {
			out[i] = LorenzoPred1D(q, i)
		}
	case 2:
		ny, nx := dims[0], dims[1]
		if ny*nx != len(q) {
			return nil, fmt.Errorf("predictor: dims %v != len %d", dims, len(q))
		}
		parallel.For(ny, func(i int) {
			for j := 0; j < nx; j++ {
				out[i*nx+j] = LorenzoPred2D(q, nx, i, j)
			}
		})
	case 3:
		nz, ny, nx := dims[0], dims[1], dims[2]
		if nz*ny*nx != len(q) {
			return nil, fmt.Errorf("predictor: dims %v != len %d", dims, len(q))
		}
		parallel.For(nz, func(k int) {
			for i := 0; i < ny; i++ {
				for j := 0; j < nx; j++ {
					out[(k*ny+i)*nx+j] = LorenzoPred3D(q, ny, nx, k, i, j)
				}
			}
		})
	default:
		return nil, fmt.Errorf("predictor: unsupported rank %d", len(dims))
	}
	return out, nil
}

// LorenzoPred1DFrom is LorenzoPred1D with the causal horizon moved to i0:
// the neighbor is zero when i <= i0. With i0 = 0 it equals LorenzoPred1D;
// with i0 at a block origin it is the seam-reset prediction of the
// block-independent decode mode, where each block pretends the grid starts
// at its own corner.
func LorenzoPred1DFrom(q []int32, i, i0 int) int64 {
	if i <= i0 {
		return 0
	}
	return int64(q[i-1])
}

// LorenzoPred2DFrom is LorenzoPred2D with zeros outside the box whose
// origin is (i0,j0) instead of outside the grid — the seam-reset 2D
// Lorenzo prediction for block-independent coding.
func LorenzoPred2DFrom(q []int32, nx, i, j, i0, j0 int) int64 {
	var up, left, diag int64
	if i > i0 {
		up = int64(q[(i-1)*nx+j])
	}
	if j > j0 {
		left = int64(q[i*nx+j-1])
	}
	if i > i0 && j > j0 {
		diag = int64(q[(i-1)*nx+j-1])
	}
	return up + left - diag
}

// LorenzoPred3DFrom is LorenzoPred3D with zeros outside the box whose
// origin is (k0,i0,j0) — the seam-reset 3D Lorenzo prediction for
// block-independent coding.
func LorenzoPred3DFrom(q []int32, ny, nx, k, i, j, k0, i0, j0 int) int64 {
	dk, di, dj := k > k0, i > i0, j > j0
	p, s := (k*ny+i)*nx+j, ny*nx
	var v int64
	if dk {
		v += int64(q[p-s])
		if di {
			v -= int64(q[p-s-nx])
			if dj {
				v += int64(q[p-s-nx-1])
			}
		}
		if dj {
			v -= int64(q[p-s-1])
		}
	}
	if di {
		v += int64(q[p-nx])
		if dj {
			v -= int64(q[p-nx-1])
		}
	}
	if dj {
		v += int64(q[p-1])
	}
	return v
}

// CrossFieldPredFrom returns the cross-field value prediction along one
// axis at flat index idx: the causal neighbor along that axis plus the
// CFNN's predicted backward difference (in prequant units).
//
//	f_cross_a(p) = q(p − stride_a) + d̂_a(p)/(2eb)
//
// coordA is the point's coordinate along the axis. At the axis origin
// originA and before it the neighbor is the implicit zero: with originA 0
// that matches the diff package's backward convention (the boundary
// difference carries the value itself); with originA at a block origin it
// is the seam-reset cross-field prediction of block-independent coding.
func CrossFieldPredFrom(q []int32, idx, strideA, coordA, originA int, dq float64) float64 {
	var prev float64
	if coordA > originA {
		prev = float64(q[idx-strideA])
	}
	return prev + dq
}
