package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/container"
	"repro/internal/predictor"
)

// predictFixture returns seeded prequant values over dims, a random walk
// along the fastest axis around scale, and per-axis difference
// predictions in tenths of a step, so that under weights in tenths
// (tieWeights) the exact hybrid sum often lands on a half step and the
// rounded prediction depends on the order of the float additions.
func predictFixture(dims []int, scale int32, seed int64) ([]int32, [][]float64) {
	rng := rand.New(rand.NewSource(seed))
	n := 1
	for _, d := range dims {
		n *= d
	}
	q := make([]int32, n)
	v := scale
	for i := range q {
		v += int32(rng.Intn(7) - 3)
		q[i] = v
	}
	dq := make([][]float64, len(dims))
	for a := range dq {
		dq[a] = make([]float64, n)
		for i := range dq[a] {
			dq[a][i] = float64(rng.Intn(61)-30) / 10
		}
	}
	return q, dq
}

// tieWeights are the hybrid weights and bias the contract test draws from.
var tieWeights = []float64{0.1, 0.2, 0.3, 0.7}

// TestHybridFeaturesMatchDecoderPrediction pins the fit's features and the
// codes pass to one predictor: at every point, boundary points of the
// first slab, row and column included, the exported feature row through
// Hybrid.Apply, clamped and rounded (Predict), equals both the encoder's
// prediction (q − code) and the decoder's (the reconstructed value − code).
// The fixture's rounding ties make a reordered float sum in either path
// fail the test; the huge-scale cases push Lorenzo past maxPred, so the
// clamp is crossed.
func TestHybridFeaturesMatchDecoderPrediction(t *testing.T) {
	for _, dims := range [][]int{{48, 64}, {1, 5}, {6, 1}, {12, 16, 16}, {1, 3, 4}, {3, 1, 5}, {2, 3, 1}} {
		for _, scale := range []int32{0, 3 << 28} {
			for _, method := range []container.Method{container.MethodHybrid, container.MethodCrossOnly} {
				name := fmt.Sprintf("%v/scale%d/method%d", dims, scale, method)
				q, dq := predictFixture(dims, scale, int64(len(dims)*7)+int64(method))
				f, err := NewFeatures(q, dims, dq, method)
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(int64(method)))
				h := &predictor.Hybrid{W: make([]float64, f.Len()), Bias: tieWeights[rng.Intn(len(tieWeights))]}
				for k := range h.W {
					h.W[k] = tieWeights[rng.Intn(len(tieWeights))]
				}
				codes := f.codes(h)
				out := make([]int32, len(q))
				hi := append([]int(nil), dims...)
				reconstructCrossBlock(out, codes, dims, make([]int, len(dims)), hi, zeroOrigin, dq,
					append(append([]float64(nil), h.W...), h.Bias), method == container.MethodHybrid)
				row := make([]float64, f.Len())
				for p := range q {
					want := Predict(h, f.Row(row, p))
					if got := q[p] - codes[p]; got != want {
						t.Fatalf("%s: encoder prediction at %d = %d, feature row gives %d", name, p, got, want)
					}
					if got := out[p] - codes[p]; got != want {
						t.Fatalf("%s: decoder prediction at %d = %d, feature row gives %d", name, p, got, want)
					}
				}
			}
		}
	}
}

// TestPredictMemoryBound: a hybrid predict builds features at its sampled
// points only, so on a chunk larger than hybridSamples it allocates the
// codes (4 B a point), the sample columns and targets (8 B each) and
// little else; one feature array per candidate over the whole chunk would
// take 8 B a point each.
func TestPredictMemoryBound(t *testing.T) {
	dims := []int{16, 64, 64}
	q, dq := predictFixture(dims, 0, 5)
	n := len(q)
	limit := uint64(4*n + 8*hybridSamples*(len(dims)+2) + 64<<10)
	want, _, err := predict(q, dims, dq, container.MethodHybrid)
	if err != nil {
		t.Fatal(err)
	}
	least := ^uint64(0)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		codes, _, err := predict(q, dims, dq, container.MethodHybrid)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		for i := range codes {
			if codes[i] != want[i] {
				t.Fatalf("code %d = %d, want %d", i, codes[i], want[i])
			}
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("a hybrid predict over %v allocates %d B (limit %d B)", dims, least, limit)
	if least >= limit {
		t.Errorf("a hybrid predict over %v allocates %d B, want under %d B", dims, least, limit)
	}
}

// BenchmarkPredict times one hybrid predict (sampled fit and codes) at
// the shape of a CESM chunk and of a Hurricane chunk.
func BenchmarkPredict(b *testing.B) {
	for _, dims := range [][]int{{40, 320}, {6, 64, 64}} {
		b.Run(fmt.Sprintf("%dD", len(dims)), func(b *testing.B) {
			q, dq := predictFixture(dims, 0, 9)
			b.ReportAllocs()
			for b.Loop() {
				if _, _, err := predict(q, dims, dq, container.MethodHybrid); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
