package nn

import (
	"math"
	"math/rand"
	"testing"
)

// tapData returns tap-kernel operands: an accumulator row of n elements,
// input rows at stride n-2 and nine weights. The SIMD kernels fuse each
// multiply-add, which rounds as the separate multiply and add of the Go
// loops only because every product is exact, so inputs and weights are
// float32 values, as activations and widened weights are; the
// accumulators are running float64 sums and need not be. Half of the
// inputs are scaled by 2^36, the second input row repeats the first, and
// the middle weight row negates the first: the two rows' huge terms cancel
// exactly after the running sum has dropped the low bits of what came
// before them, so a kernel that adds the taps in another order changes
// bits.
func tapData(n int) (acc []float64, xd []float64, wr []float64) {
	rng := rand.New(rand.NewSource(1))
	val := func() float64 { return float64(float32(rng.NormFloat64())) }
	stride := n - 2
	acc = make([]float64, n)
	xd = make([]float64, 3*n+4)
	wr = make([]float64, 9)
	for i := range acc {
		acc[i] = rng.NormFloat64()
	}
	for i := range xd {
		switch {
		case i >= stride && i < 2*stride:
			xd[i] = xd[i-stride]
		case rng.Intn(2) == 0:
			xd[i] = val() * (1 << 36)
		default:
			xd[i] = val()
		}
	}
	for i := range wr {
		if i >= 3 && i < 6 {
			wr[i] = -wr[i-3]
		} else {
			wr[i] = val()
		}
	}
	return
}

// tap9Ref is the reference 3×3 bundle: for j in [0, n) it adds the nine
// taps against rows at the given stride in ascending (ki, kj) order, with
// a separate multiply and add rounding each.
func tap9Ref(acc, xd, wr []float64, n, stride int) {
	for j := 0; j < n; j++ {
		a := acc[j]
		for ki := 0; ki < 3; ki++ {
			for kj := 0; kj < 3; kj++ {
				a += float64(wr[ki*3+kj] * xd[ki*stride+j+kj])
			}
		}
		acc[j] = a
	}
}

func TestTap9MatchesGo(t *testing.T) {
	if !haveTap9 {
		t.Skip("no AVX2")
	}
	for _, w := range []int{4, 5, 7, 16, 46, 127} {
		acc, xd, wr := tapData(w + 4)
		ref := append([]float64(nil), acc...)
		tap9Ref(ref, xd, wr, w, w+2)
		tap9(&acc[0], &xd[0], &xd[w+2], &xd[2*(w+2)], &wr[0], w)
		for j := range acc {
			if math.Float64bits(acc[j]) != math.Float64bits(ref[j]) {
				t.Fatalf("w=%d j=%d: asm %v != go %v", w, j, acc[j], ref[j])
			}
		}
	}
}

// TestTap9ZMatchesGo covers tap9z's vector loop and every length of its
// masked tail (w mod 8 from 0 to 7, and w below one vector); acc is
// compared past w too, where the masked store must write nothing.
func TestTap9ZMatchesGo(t *testing.T) {
	if !haveTap9Z {
		t.Skip("no AVX-512")
	}
	for _, w := range []int{1, 2, 3, 5, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 46, 127} {
		acc, xd, wr := tapData(w + 4)
		ref := append([]float64(nil), acc...)
		tap9Ref(ref, xd, wr, w, w+2)
		tap9z(&acc[0], &xd[0], &xd[w+2], &xd[2*(w+2)], &wr[0], w)
		for j := range acc {
			if math.Float64bits(acc[j]) != math.Float64bits(ref[j]) {
				t.Fatalf("w=%d j=%d: asm %v != go %v", w, j, acc[j], ref[j])
			}
		}
	}
}

// TestTap9Z3MatchesGo runs tap9z3 against three tap9Ref bundles: output o
// reads the weights at o*wStride and writes the accumulators at
// o*accStride, over the vector loop and every masked-tail length. The
// three outputs' weights differ (tapData's, negated, halved), so an
// output that read another's weights shows, and the accumulators between
// and past the three rows must stay untouched.
func TestTap9Z3MatchesGo(t *testing.T) {
	if !haveTap9Z {
		t.Skip("no AVX-512")
	}
	for _, w := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 46, 127} {
		_, xd, wr := tapData(w + 4)
		const wStride = 13
		ws := make([]float64, 2*wStride+9)
		for i, v := range wr {
			ws[i], ws[wStride+i], ws[2*wStride+i] = v, -v, v/2
		}
		accStride := w + 5
		acc := make([]float64, 3*accStride)
		rng := rand.New(rand.NewSource(int64(w)))
		for i := range acc {
			acc[i] = rng.NormFloat64()
		}
		ref := append([]float64(nil), acc...)
		for o := 0; o < 3; o++ {
			tap9Ref(ref[o*accStride:], xd, ws[o*wStride:o*wStride+9], w, w+2)
		}
		tap9z3(&acc[0], &xd[0], &ws[0], accStride, w+2, wStride, w)
		for j := range acc {
			if math.Float64bits(acc[j]) != math.Float64bits(ref[j]) {
				t.Fatalf("w=%d element %d (output %d, j=%d): asm %v != go %v", w, j, j/accStride, j%accStride, acc[j], ref[j])
			}
		}
	}
}

// pointwiseData returns random pointwise operands: inC channels of n
// inputs, outC×inC weights and outC biases, all float32 values. Products
// of float32 values are exact in float64, so only the order of the adds
// can change a result, and only where the running sum cancels: every odd
// channel repeats the previous channel's inputs under the negated weight,
// and half of those inputs are huge. Such a pair cancels exactly while
// the running sum drops the low bits of what came before it, so a kernel
// that adds in any other order (the bias last, say) changes float32 bits.
func pointwiseData(rng *rand.Rand, inC, outC, n int) (xd, wd []float64, bd []float32) {
	val := func() float64 { return float64(float32(rng.NormFloat64())) }
	xd = make([]float64, inC*n)
	for ic := 0; ic < inC; ic++ {
		row := xd[ic*n : (ic+1)*n]
		for j := range row {
			switch {
			case ic%2 == 1:
				row[j] = xd[(ic-1)*n+j]
			case rng.Intn(2) == 0:
				row[j] = val() * (1 << 36)
			default:
				row[j] = val()
			}
		}
	}
	wd = make([]float64, outC*inC)
	for i := range wd {
		if i%inC%2 == 1 {
			wd[i] = -wd[i-1]
		} else {
			wd[i] = val()
		}
	}
	bd = make([]float32, outC)
	for i := range bd {
		bd[i] = float32(val())
	}
	return xd, wd, bd
}

// withKernels runs fn with the SIMD kernel tiers forced to z (AVX-512)
// and v2 (AVX2), restoring the detected tiers afterwards.
func withKernels(z, v2 bool, fn func()) {
	savedZ, saved9 := haveTap9Z, haveTap9
	defer func() { setTap9Z(savedZ); setTap9(saved9) }()
	setTap9Z(z)
	setTap9(v2)
	fn()
}

// TestPointwiseMatchesGo is the SIMD-vs-Go property of the pointwise
// kernels: for random operands, every available tier writes the bits a
// plain per-element loop (bias, then each channel's product added in
// ascending order, one float32 rounding) computes. It covers every
// input-channel count from 1 to 24 against element counts below one
// vector, inside one register block, and odd counts past a strip, so
// every vector block and scalar tail runs, at one and three workers.
func TestPointwiseMatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for inC := 1; inC <= 24; inC++ {
		for _, n := range []int{1 + rng.Intn(7), 8 + rng.Intn(24), pwStrip*(1+rng.Intn(3)) + 2*rng.Intn(pwStrip/2) + 1} {
			outC := 1 + rng.Intn(5)
			xd, wd, bd := pointwiseData(rng, inC, outC, n)
			want := make([]float64, outC*n)
			for oc := 0; oc < outC; oc++ {
				for j := 0; j < n; j++ {
					a := float64(bd[oc])
					for ic := 0; ic < inC; ic++ {
						a += float64(wd[oc*inC+ic] * xd[ic*n+j])
					}
					want[oc*n+j] = float64(float32(a))
				}
			}
			for _, tier := range kernelTiers {
				if !tier.ok {
					continue
				}
				for _, workers := range []int{1, 3} {
					got := make([]float64, outC*n)
					withKernels(tier.z, tier.v2, func() {
						pointwiseConv(got, xd, wd, bd, inC, outC, n, false, workers)
					})
					for i := range want {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("%s inC=%d outC=%d n=%d workers=%d: element %d = %v, want %v",
								tier.name, inC, outC, n, workers, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// padBandData returns tap9Rows operands over one zero-bordered band of r
// rows of width w, as convPadded lays it out: n = r·(w+2)−2 accumulators
// and (r+2)·(w+2) inputs whose border is zero, from tapData's values.
func padBandData(r, w int) (acc, xd, wr []float64) {
	ws := w + 2
	acc, src, wr := tapData((r+2)*ws + 2)
	xd = make([]float64, (r+2)*ws)
	for i := 0; i < r+2; i++ {
		copy(xd[i*ws+1:i*ws+1+w], src[i*ws:])
	}
	return acc[:r*ws-2], xd, wr
}

// TestTap9RowsKernelToggles runs tap9Rows over zero-bordered bands, as
// convPadded calls it, on every kernel tier against tap9Ref: every length
// runs the Go loop on the pure-Go tier (odd lengths end in its one-element
// tail), lengths below 4 on every tier, lengths from 4 to 7 tap9 on the
// SIMD tiers, and longer ones tap9z on AVX-512. Each bundle is added and
// then subtracted (negated weights), so every element ends at its
// starting accumulator plus the rounding residue of the two passes, where
// a change in the order of any tap's add shows.
func TestTap9RowsKernelToggles(t *testing.T) {
	for r := 1; r <= 3; r++ {
		for _, w := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 30, 48} {
			acc, xd, wr := padBandData(r, w)
			n, ws := len(acc), w+2
			neg := make([]float64, len(wr))
			for i, v := range wr {
				neg[i] = -v
			}
			want := append([]float64(nil), acc...)
			tap9Ref(want, xd, wr, n, ws)
			tap9Ref(want, xd, neg, n, ws)
			for _, tier := range kernelTiers {
				if !tier.ok {
					continue
				}
				got := append([]float64(nil), acc...)
				withKernels(tier.z, tier.v2, func() {
					tap9Rows(got, xd, wr, 0, ws, 2*ws, 0, n)
					tap9Rows(got, xd, neg, 0, ws, 2*ws, 0, n)
				})
				if i := firstDiff(got, want); i >= 0 {
					t.Fatalf("%s r=%d w=%d: element %d = %v, want %v", tier.name, r, w, i, got[i], want[i])
				}
			}
		}
	}
}

// benchTap9Rows times tap9Rows over one 16-row padded band of width 48.
func benchTap9Rows(b *testing.B, mode string) {
	switch mode {
	case "avx512":
		if !haveTap9Z {
			b.Skip("no AVX-512")
		}
	case "avx2":
		if !haveTap9 {
			b.Skip("no AVX2")
		}
	}
	acc, xd, wr := padBandData(padRows, 48)
	ws := 48 + 2
	withKernels(mode == "avx512", mode != "go", func() {
		b.SetBytes(int64(len(acc) * 9 * 8))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tap9Rows(acc, xd, wr, 0, ws, 2*ws, 0, len(acc))
		}
	})
}

func BenchmarkTap9AVX512(b *testing.B) { benchTap9Rows(b, "avx512") }
func BenchmarkTap9ASM(b *testing.B)    { benchTap9Rows(b, "avx2") }
func BenchmarkTap9Go(b *testing.B)     { benchTap9Rows(b, "go") }

// benchPointwise times one serial 1×1 convolution at the 2D CFNN width
// (20 channels in and out) over a 128×160 plane.
func benchPointwise(b *testing.B, mode string) {
	switch mode {
	case "avx512":
		if !haveTap9Z {
			b.Skip("no AVX-512")
		}
	case "avx2":
		if !haveTap9 {
			b.Skip("no AVX2")
		}
	}
	const inC, outC, n = 20, 20, 128 * 160
	xd, wd, bd := pointwiseData(rand.New(rand.NewSource(1)), inC, outC, n)
	out := make([]float64, outC*n)
	withKernels(mode == "avx512", mode != "go", func() {
		b.SetBytes(int64(n * inC * outC * 8))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pointwiseConv(out, xd, wd, bd, inC, outC, n, false, 1)
		}
	})
}

func BenchmarkPointwiseAVX512(b *testing.B) { benchPointwise(b, "avx512") }
func BenchmarkPointwiseAVX2(b *testing.B)   { benchPointwise(b, "avx2") }
func BenchmarkPointwiseGo(b *testing.B)     { benchPointwise(b, "go") }

// TestKernelTier logs the kernel tier this machine runs, so a CI log (go
// test -v) shows whether the AVX-512 checks ran or skipped.
func TestKernelTier(t *testing.T) {
	switch {
	case haveTap9Z:
		t.Log("kernel tier: AVX-512 (tap9z, tap9z3, pointwisez)")
	case haveTap9:
		t.Log("kernel tier: AVX2+FMA (tap9, pointwise); the AVX-512 checks (tap9z, tap9z3) skip")
	default:
		t.Log("kernel tier: pure Go; the SIMD checks skip")
	}
}
