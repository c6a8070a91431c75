// Package quant implements the dual-quantization scheme (prequantization +
// postquantization) the paper adopts from cuSZ to remove the
// read-after-write dependency from the compression path (Section III-D1).
//
// Prequantization maps each value to the nearest multiple of 2·eb:
//
//	q = round(v / (2·eb))        (an int32 "prequant" value)
//
// All prediction then happens in the integer prequant domain; the stored
// postquantization code is c = q − pred, which is exact, so decompression
// reconstructs q precisely and the only loss is the prequant rounding —
// bounded by eb by construction.
package quant

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/parallel"
)

// Mode selects how the error bound is interpreted.
type Mode int

const (
	// Abs treats Bound.Value as an absolute error bound.
	Abs Mode = iota
	// Rel treats Bound.Value as a fraction of the data's value range
	// (the "relative error bound" used throughout the paper's evaluation).
	Rel
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Abs:
		return "abs"
	case Rel:
		return "rel"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Bound is a user-facing error bound.
type Bound struct {
	Mode  Mode
	Value float64
}

// AbsBound returns an absolute bound.
func AbsBound(v float64) Bound { return Bound{Mode: Abs, Value: v} }

// RelBound returns a value-range-relative bound (e.g. 1e-3 as in Table II).
func RelBound(v float64) Bound { return Bound{Mode: Rel, Value: v} }

// Absolute resolves the bound against a value range. For Abs bounds the
// range is ignored.
func (b Bound) Absolute(valueRange float64) (float64, error) {
	if b.Value <= 0 || math.IsNaN(b.Value) || math.IsInf(b.Value, 0) {
		return 0, fmt.Errorf("quant: invalid bound value %v", b.Value)
	}
	switch b.Mode {
	case Abs:
		return b.Value, nil
	case Rel:
		if valueRange <= 0 {
			// Constant field: any positive epsilon preserves it exactly
			// after prequantization of a constant; pick the bound itself.
			return b.Value, nil
		}
		return b.Value * valueRange, nil
	default:
		return 0, fmt.Errorf("quant: unknown mode %v", b.Mode)
	}
}

// String renders e.g. "rel=1e-03".
func (b Bound) String() string { return fmt.Sprintf("%s=%.0e", b.Mode, b.Value) }

// ErrRange reports values too large for the requested error bound: the
// prequant integer would overflow the int32 working range.
var ErrRange = errors.New("quant: value/error-bound ratio overflows prequant range")

// maxPrequant keeps |q| small enough that postquant arithmetic can never
// overflow int32: the 3D Lorenzo prediction sums up to 4 prequant values
// (|pred| ≤ 4·2^26 = 2^28), so |q − pred| ≤ 2^26 + 2^28 < 2^31.
const maxPrequant = 1 << 26

// MaxPrequant exposes the prequant working range for prediction-side
// clamping.
const MaxPrequant = maxPrequant

// Tolerance returns the achievable error bound when reconstructing into
// float32: eb plus one unit in the last place of the value's magnitude.
// The prequant arithmetic is exact in float64 (|q·2eb − v| ≤ eb); the final
// float32 conversion can add at most one ulp. For the relative bounds used
// in the paper's evaluation (≥2e-4 of the value range) the ulp term is
// negligible; it only matters when eb approaches float32 resolution.
func Tolerance(eb, maxAbsValue float64) float64 {
	const ulp32 = 1.2e-7 // 2^-23, relative ulp of float32
	return eb + float64(maxAbsValue*ulp32)
}

// Prequantize maps data to prequant integers: q = round(v/(2·eb)).
// It runs in parallel and returns ErrRange if any |q| exceeds the working
// range (choose a larger error bound or split the field).
func Prequantize(data []float32, eb float64) ([]int32, error) {
	if eb <= 0 || math.IsNaN(eb) || math.IsInf(eb, 0) {
		return nil, fmt.Errorf("quant: invalid absolute error bound %v", eb)
	}
	q := make([]int32, len(data))
	inv := 1 / (2 * eb)
	bad := parallel.MapReduce(chunks(len(data)), false,
		func(c int, acc bool) bool {
			lo, hi := chunkBounds(c, len(data))
			for i := lo; i < hi; i++ {
				r := math.Round(float64(data[i]) * inv)
				if r > maxPrequant || r < -maxPrequant || math.IsNaN(r) {
					return true
				}
				q[i] = int32(r)
			}
			return acc
		},
		func(a, b bool) bool { return a || b })
	if bad {
		return nil, ErrRange
	}
	return q, nil
}

// Dequantize inverts prequantization: v = q·(2·eb).
func Dequantize(q []int32, eb float64) []float32 {
	out := make([]float32, len(q))
	parallel.ForRange(len(q), func(lo, hi int) {
		DequantizeSpan(out, q, eb, lo, hi)
	})
	return out
}

// DequantizeSpan dequantizes the flat index range [lo, hi) of q into the
// same range of out. The block-parallel decoder walks a chunk decode block
// by block, dequantizing each block's row spans right after reconstructing
// them — the values are still cache-hot, and writes to disjoint spans need
// no synchronization.
func DequantizeSpan(out []float32, q []int32, eb float64, lo, hi int) {
	s := 2 * eb
	for i := lo; i < hi; i++ {
		out[i] = float32(float64(q[i]) * s)
	}
}

const grain = 1 << 15

func chunks(n int) int { return (n + grain - 1) / grain }

func chunkBounds(c, n int) (int, int) {
	lo := c * grain
	hi := lo + grain
	if hi > n {
		hi = n
	}
	return lo, hi
}
