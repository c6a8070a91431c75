package nn

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"
)

// expSweepSHA256 is the SHA-256 of exp's float64 bits over expSweep. It
// must not change on any CPU or architecture: the channel-attention
// weights, and so every hybrid payload, are computed from exp.
const expSweepSHA256 = "a7d18e9131b28e1996a24b729ff973d79a594a48ee64e2a236f3e676212f7c0f"

// expSweep calls fn on the special values and on 2^18 seeded arguments in
// the sigmoid's working range and 2^18 across exp's whole finite range.
func expSweep(fn func(x float64)) {
	for _, x := range []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
		709.78, 709.79, -745.13, -745.14, 1.0 / (1 << 29), -1.0 / (1 << 29), 1, -1,
	} {
		fn(x)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1<<18; i++ {
		fn(rng.NormFloat64() * 8)
		fn((rng.Float64() - 0.5) * 1490)
	}
}

// TestExpBitsPinned pins exp's results bit for bit (the CI job with
// GODEBUG=cpu.fma=off runs it too), and checks that every result away
// from the overflow and underflow ends lies within two ulps of math.Exp
// (the two algorithms differ in about one float64 result in six, never by
// more).
func TestExpBitsPinned(t *testing.T) {
	h := sha256.New()
	var buf [8]byte
	expSweep(func(x float64) {
		got := exp(x)
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(got))
		h.Write(buf[:])
		// math.Exp's amd64 assembly overflows a little early, so the
		// comparison stops short of the ends of the range.
		if want := math.Exp(x); math.Abs(x) < 700 && got != want &&
			math.Nextafter(got, want) != want && math.Nextafter(math.Nextafter(got, want), want) != want {
			t.Fatalf("exp(%v) = %v, more than two ulps from math.Exp's %v", x, got, want)
		}
	})
	if got := hex.EncodeToString(h.Sum(nil)); got != expSweepSHA256 {
		t.Fatalf("exp sweep SHA-256 = %s, want %s", got, expSweepSHA256)
	}
}
