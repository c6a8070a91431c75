//go:build !amd64

package nn

// Off amd64 the SIMD kernels are compiled out; tap9Rows, fillAcc,
// storeRow and pointwiseItems use their pure-Go loops, which compute
// identical results.
const (
	haveTap9  = false
	haveTap9Z = false
)

// None of these are ever called when the have* constants are false.
func tap9(acc, x0, x1, x2, w *float64, n int) {
	panic("nn: tap9 without AVX2 support")
}

func tap9z(acc, x0, x1, x2, w *float64, n int) {
	panic("nn: tap9z without AVX-512 support")
}

func tap9z3(acc, x, w *float64, accStride, rowStride, wStride, n int) {
	panic("nn: tap9z3 without AVX-512 support")
}

func pointwise(dst, x, w *float64, bias float64, inC, stride, n int, relu bool) {
	panic("nn: pointwise without AVX2 support")
}

func pointwisez(dst, x, w *float64, bias float64, inC, stride, n int, relu bool) {
	panic("nn: pointwisez without AVX-512 support")
}

func fillRow(acc *float64, v float64, n int) {
	panic("nn: fillRow without AVX2 support")
}

func roundRow(dst, acc *float64, n int, relu bool) {
	panic("nn: roundRow without AVX2 support")
}
