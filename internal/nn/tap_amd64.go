//go:build amd64

package nn

import (
	"os"
	"strings"
)

// cpuid and xgetbv0 are implemented in tap_amd64.s.
func cpuid(op, subop uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() (eax, edx uint32)

// tap9 is the AVX2 inner kernel for a 3×3 tap bundle: for j in [0, n),
// acc[j] accumulates the nine taps w[0..9) against x0/x1/x2[j..j+2] in
// ascending tap order, one fused multiply-add per tap — bit-identical to
// the pure-Go loop in tap9Rows, because every product of float32-exact
// operands is exact in float64 (see tap_amd64.s). Implemented in
// tap_amd64.s.
//
//go:noescape
func tap9(acc, x0, x1, x2, w *float64, n int)

// tap9z is tap9 with 8-wide AVX-512 vectors and a k-masked step for the
// last n mod 8 elements. Same tap order and rounding; lanes are
// independent accumulators, so width changes no result bits.
//
//go:noescape
func tap9z(acc, x0, x1, x2, w *float64, n int)

// tap9z3 is tap9z for three output channels that read one input band:
// for o in [0, 3) and j in [0, n) it adds the nine taps
// w[o*wStride:o*wStride+9] against x[ki*rowStride+j+kj] into
// acc[o*accStride+j], in tap9z's order and rounding. Each input vector is
// loaded once for the three outputs' fused multiply-adds.
//
//go:noescape
func tap9z3(acc, x, w *float64, accStride, rowStride, wStride, n int)

// pointwise is the AVX2 kernel for one strip of a 1×1 convolution: for j
// in [0, n) it starts a float64 accumulator at bias, adds w[ic]*x[ic*stride+j]
// for ic ascending in [0, inC) with one fused multiply-add each, rounds
// the sum to float32 and stores it widened to dst[j], clamped as relu32
// clamps when relu is set — bit-identical to pointwiseGo. The
// accumulators stay in registers across all input channels. inC >= 1.
//
//go:noescape
func pointwise(dst, x, w *float64, bias float64, inC, stride, n int, relu bool)

// pointwisez is pointwise with 8-wide AVX-512 vectors.
//
//go:noescape
func pointwisez(dst, x, w *float64, bias float64, inC, stride, n int, relu bool)

// fillRow is the AVX2 accumulator fill of the convolutions: acc[j] = v
// for j in [0, n).
//
//go:noescape
func fillRow(acc *float64, v float64, n int)

// roundRow is the AVX2 row store of storeRow: for j in [0, n), dst[j] =
// float64(float32(acc[j])), clamped as relu32 clamps when relu is set.
//
//go:noescape
func roundRow(dst, acc *float64, n int, relu bool)

// haveTap9 gates the AVX2 kernels, which need FMA too; haveTap9Z
// additionally gates the AVX-512 ones. Both honor GODEBUG cpu flags
// (cpu.avx2=off, cpu.avx512f=off, cpu.all=off) like the runtime's own
// cpu-feature gating, so a pure-Go CI leg can force the fallback loops.
// cpu.fma=off leaves them on: their fused multiply-adds change no bit.
var (
	haveTap9  = detectAVX2() && !godebugCPUOff("cpu.avx2")
	haveTap9Z = haveTap9 && detectAVX512F() && !godebugCPUOff("cpu.avx512f")
)

// godebugCPUOff reports whether GODEBUG disables a cpu feature flag.
func godebugCPUOff(key string) bool {
	for _, kv := range strings.Split(os.Getenv("GODEBUG"), ",") {
		if kv == key+"=off" || kv == "cpu.all=off" {
			return true
		}
	}
	return false
}

func detectAVX2() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, c, _ := cpuid(1, 0)
	const fma = 1 << 12
	const osxsave = 1 << 27
	const avx = 1 << 28
	if c&fma == 0 || c&osxsave == 0 || c&avx == 0 {
		return false
	}
	if eax, _ := xgetbv0(); eax&0x6 != 0x6 { // XMM and YMM state enabled
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&(1<<5) != 0 // AVX2
}

func detectAVX512F() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, c, _ := cpuid(1, 0)
	const osxsave = 1 << 27
	if c&osxsave == 0 {
		return false
	}
	// XMM, YMM, plus opmask/ZMM_Hi256/Hi16_ZMM state enabled by the OS.
	if eax, _ := xgetbv0(); eax&0xE6 != 0xE6 {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&(1<<16) != 0 // AVX512F
}
