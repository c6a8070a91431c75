package predictor

import (
	"fmt"

	"repro/internal/parallel"
)

// This file implements two SZ-family reference predictors used by the
// ablation benches to contextualize the Lorenzo baseline (Section II-A
// cites Lorenzo, Regression, and Interpolation as the established
// local-field predictors). They are evaluated through residual entropy —
// the quantity that determines the Huffman stage's output size — rather
// than wired into the container format.

// RegressionAll computes SZ2-style block-regression predictions: the field
// is split into blocks (6×6 in 2D, 6×6×6 in 3D, SZ2's default) and a least-
// squares hyperplane fitted per block predicts each point from its
// in-block coordinates.
func RegressionAll(q []int32, dims []int) ([]float64, error) {
	const bs = 6
	out := make([]float64, len(q))
	switch len(dims) {
	case 2:
		ny, nx := dims[0], dims[1]
		if ny*nx != len(q) {
			return nil, fmt.Errorf("predictor: dims %v != len %d", dims, len(q))
		}
		nbi := (ny + bs - 1) / bs
		nbj := (nx + bs - 1) / bs
		parallel.For(nbi*nbj, func(b int) {
			bi, bj := b/nbj, b%nbj
			i0, j0 := bi*bs, bj*bs
			i1, j1 := minI(i0+bs, ny), minI(j0+bs, nx)
			// Fit v ≈ c0 + c1·di + c2·dj over the block.
			var s [3][3]float64
			var rhs [3]float64
			for i := i0; i < i1; i++ {
				for j := j0; j < j1; j++ {
					x := [3]float64{1, float64(i - i0), float64(j - j0)}
					v := float64(q[i*nx+j])
					for a := 0; a < 3; a++ {
						rhs[a] += float64(x[a] * v)
						for c := 0; c < 3; c++ {
							s[a][c] += float64(x[a] * x[c])
						}
					}
				}
			}
			coef := solve3(s, rhs)
			for i := i0; i < i1; i++ {
				for j := j0; j < j1; j++ {
					out[i*nx+j] = coef[0] + float64(coef[1]*float64(i-i0)) + float64(coef[2]*float64(j-j0))
				}
			}
		})
	case 3:
		nz, ny, nx := dims[0], dims[1], dims[2]
		if nz*ny*nx != len(q) {
			return nil, fmt.Errorf("predictor: dims %v != len %d", dims, len(q))
		}
		nbk := (nz + bs - 1) / bs
		nbi := (ny + bs - 1) / bs
		nbj := (nx + bs - 1) / bs
		parallel.For(nbk*nbi*nbj, func(b int) {
			bk := b / (nbi * nbj)
			bi := (b / nbj) % nbi
			bj := b % nbj
			k0, i0, j0 := bk*bs, bi*bs, bj*bs
			k1, i1, j1 := minI(k0+bs, nz), minI(i0+bs, ny), minI(j0+bs, nx)
			var s [4][4]float64
			var rhs [4]float64
			for k := k0; k < k1; k++ {
				for i := i0; i < i1; i++ {
					for j := j0; j < j1; j++ {
						x := [4]float64{1, float64(k - k0), float64(i - i0), float64(j - j0)}
						v := float64(q[(k*ny+i)*nx+j])
						for a := 0; a < 4; a++ {
							rhs[a] += float64(x[a] * v)
							for c := 0; c < 4; c++ {
								s[a][c] += float64(x[a] * x[c])
							}
						}
					}
				}
			}
			coef := solve4(s, rhs)
			for k := k0; k < k1; k++ {
				for i := i0; i < i1; i++ {
					for j := j0; j < j1; j++ {
						out[(k*ny+i)*nx+j] = coef[0] + float64(coef[1]*float64(k-k0)) + float64(coef[2]*float64(i-i0)) + float64(coef[3]*float64(j-j0))
					}
				}
			}
		})
	default:
		return nil, fmt.Errorf("predictor: regression supports rank 2/3, got %d", len(dims))
	}
	return out, nil
}

// InterpolationAll computes SZ3-style cubic-interpolation predictions along
// the last axis: even points anchor, odd points are predicted by a 4-point
// cubic (falling back to linear at edges). One level of the SZ3 hierarchy
// is enough for an apples-to-apples residual-entropy comparison.
func InterpolationAll(q []int32, dims []int) ([]float64, error) {
	if len(dims) < 1 || len(dims) > 3 {
		return nil, fmt.Errorf("predictor: interpolation supports rank 1-3, got %d", len(dims))
	}
	n := 1
	for _, d := range dims {
		n *= d
	}
	if n != len(q) {
		return nil, fmt.Errorf("predictor: dims %v != len %d", dims, len(q))
	}
	nx := dims[len(dims)-1]
	lines := n / nx
	out := make([]float64, len(q))
	parallel.For(lines, func(l int) {
		base := l * nx
		for j := 0; j < nx; j++ {
			idx := base + j
			if j%2 == 0 {
				// Anchor points: predicted by their previous anchor
				// (Lorenzo-1D on the coarse grid).
				if j >= 2 {
					out[idx] = float64(q[idx-2])
				} else {
					out[idx] = 0
				}
				continue
			}
			// Odd points: cubic from the two anchors on each side.
			jm1, jp1 := j-1, j+1
			jm3, jp3 := j-3, j+3
			switch {
			case jm3 >= 0 && jp3 < nx:
				out[idx] = (-float64(q[base+jm3]) + float64(9*float64(q[base+jm1])) + float64(9*float64(q[base+jp1])) - float64(q[base+jp3])) / 16
			case jp1 < nx:
				out[idx] = (float64(q[base+jm1]) + float64(q[base+jp1])) / 2
			default:
				out[idx] = float64(q[base+jm1])
			}
		}
	})
	return out, nil
}

// ResidualCodes converts float predictions into integer quantization codes
// against the prequant values: c = q − round(pred).
func ResidualCodes(q []int32, preds []float64) []int32 {
	codes := make([]int32, len(q))
	parallel.ForRange(len(q), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			codes[i] = q[i] - int32(roundHalfAway(preds[i]))
		}
	})
	return codes
}

// ResidualCodesInt is ResidualCodes for integer predictions (Lorenzo).
func ResidualCodesInt(q []int32, preds []int64) []int32 {
	codes := make([]int32, len(q))
	parallel.ForRange(len(q), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			codes[i] = q[i] - int32(preds[i])
		}
	})
	return codes
}

func roundHalfAway(v float64) float64 {
	if v >= 0 {
		return float64(int64(v + 0.5))
	}
	return float64(int64(v - 0.5))
}

func minI(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func solve3(s [3][3]float64, rhs [3]float64) [3]float64 {
	a := [][]float64{
		{s[0][0] + 1e-9, s[0][1], s[0][2]},
		{s[1][0], s[1][1] + 1e-9, s[1][2]},
		{s[2][0], s[2][1], s[2][2] + 1e-9},
	}
	b := []float64{rhs[0], rhs[1], rhs[2]}
	x, err := solveSPD(a, b)
	if err != nil {
		return [3]float64{}
	}
	return [3]float64{x[0], x[1], x[2]}
}

func solve4(s [4][4]float64, rhs [4]float64) [4]float64 {
	a := make([][]float64, 4)
	for i := range a {
		a[i] = make([]float64, 4)
		for j := range a[i] {
			a[i][j] = s[i][j]
			if i == j {
				a[i][j] += 1e-9
			}
		}
	}
	b := []float64{rhs[0], rhs[1], rhs[2], rhs[3]}
	x, err := solveSPD(a, b)
	if err != nil {
		return [4]float64{}
	}
	return [4]float64{x[0], x[1], x[2], x[3]}
}
