package crossfield_test

// Micro-benchmarks of individual pipeline stages, for -benchmem visibility
// into where the codec spends time and allocations.

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"testing"

	"repro/internal/bitstream"
	"repro/internal/cfnn"
	"repro/internal/core"
	"repro/internal/diff"
	"repro/internal/fft"
	"repro/internal/huffman"
	"repro/internal/lossless"
	"repro/internal/nn"
	"repro/internal/predictor"
	"repro/internal/quant"
	"repro/internal/tensor"
)

func benchCodes(n int) []int32 {
	rng := rand.New(rand.NewSource(1))
	codes := make([]int32, n)
	for i := range codes {
		// Geometric-ish, like real quantization codes.
		v := int32(0)
		for rng.Float64() < 0.55 && v < 14 {
			v++
		}
		if rng.Intn(2) == 0 {
			v = -v
		}
		codes[i] = v
	}
	return codes
}

func BenchmarkHuffmanEncode(b *testing.B) {
	codes := benchCodes(1 << 18)
	codec, err := huffman.Build(codes, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(codes) * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var w bitstream.Writer
		if err := codec.Encode(&w, codes); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHuffmanDecode(b *testing.B) {
	codes := benchCodes(1 << 18)
	codec, err := huffman.Build(codes, 0)
	if err != nil {
		b.Fatal(err)
	}
	var w bitstream.Writer
	if err := codec.Encode(&w, codes); err != nil {
		b.Fatal(err)
	}
	payload := w.Bytes()
	b.SetBytes(int64(len(codes) * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := codec.Decode(bitstream.NewReader(payload), len(codes)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPrequantize(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	data := make([]float32, 1<<18)
	for i := range data {
		data[i] = rng.Float32() * 100
	}
	b.SetBytes(int64(len(data) * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := quant.Prequantize(data, 1e-3); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLorenzoAll3D(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	const nz, ny, nx = 16, 128, 128
	q := make([]int32, nz*ny*nx)
	for i := range q {
		q[i] = int32(rng.Intn(2000) - 1000)
	}
	b.SetBytes(int64(len(q) * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := predictor.LorenzoAll(q, []int{nz, ny, nx}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBackwardDiff3D(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	t3 := tensor.New(16, 128, 128)
	for i := range t3.Data() {
		t3.Data()[i] = rng.Float32()
	}
	b.SetBytes(int64(t3.Len() * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := diff.AllBackward(t3); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFFT2D(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	const n = 256
	grid := make([]complex128, n*n)
	for i := range grid {
		grid[i] = complex(rng.NormFloat64(), 0)
	}
	b.SetBytes(int64(n * n * 16))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		work := append([]complex128(nil), grid...)
		if err := fft.Forward2D(work, n, n); err != nil {
			b.Fatal(err)
		}
	}
}

// benchModel trains a tiny 3D CFNN and returns it with its anchor fields,
// for inference micro-benchmarks.
func benchModel(tb testing.TB, nz, ny, nx int) (*cfnn.Model, []*tensor.Tensor) {
	tb.Helper()
	rng := rand.New(rand.NewSource(11))
	mk := func(phase float64) *tensor.Tensor {
		t := tensor.New(nz, ny, nx)
		d := t.Data()
		for i := range d {
			d[i] = float32(rng.NormFloat64() + phase*float64(i%97)/97)
		}
		return t
	}
	anchors := []*tensor.Tensor{mk(1.5), mk(-0.7)}
	target := mk(0.9)
	m, err := cfnn.New(cfnn.Config{SpatialRank: 3, NumAnchors: 2, Features: 6, Seed: 3})
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := m.Train(anchors, target, cfnn.TrainConfig{Epochs: 1, StepsPerEpoch: 2, Batch: 1}); err != nil {
		tb.Fatal(err)
	}
	return m, anchors
}

// TestPredictDiffsArenaZeroAlloc pins the inference hot path's
// allocation contract: a steady-state PredictDiffsWith pass through a
// warmed arena performs zero heap allocations at workers=1 (parallel
// dispatch necessarily allocates goroutine frames, so it is exercised
// elsewhere).
func TestPredictDiffsArenaZeroAlloc(t *testing.T) {
	m, anchors := benchModel(t, 8, 24, 24)
	arena := nn.NewArena()
	// Warm up: arena buffers grow to their steady-state sizes.
	for i := 0; i < 3; i++ {
		if _, err := m.PredictDiffsWith(anchors, arena, 1); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := m.PredictDiffsWith(anchors, arena, 1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state PredictDiffsWith allocated %.1f objects/op, want 0", allocs)
	}
}

func BenchmarkPredictDiffsArena(b *testing.B) {
	m, anchors := benchModel(b, 16, 48, 48)
	arena := nn.NewArena()
	if _, err := m.PredictDiffsWith(anchors, arena, 0); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(anchors[0].Len() * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.PredictDiffsWith(anchors, arena, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHybridChunkedCompress(b *testing.B) {
	const nz, ny, nx = 16, 48, 48
	m, anchors := benchModel(b, nz, ny, nx)
	target := anchors[0].Clone()
	req := core.EncodeRequest{
		Bound:       quant.RelBound(1e-3),
		Model:       m,
		Anchors:     anchors,
		ChunkVoxels: nz * ny * nx / 8,
		Workers:     1,
	}
	if _, err := core.Encode(context.Background(), io.Discard, target, req); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(target.Len() * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Encode(context.Background(), io.Discard, target, req); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHybridChunkedDecompress(b *testing.B) {
	const nz, ny, nx = 16, 48, 48
	m, anchors := benchModel(b, nz, ny, nx)
	target := anchors[0].Clone()
	var blob bytes.Buffer
	if _, err := core.Encode(context.Background(), &blob, target, core.EncodeRequest{
		Bound:       quant.RelBound(1e-3),
		Model:       m,
		Anchors:     anchors,
		ChunkVoxels: nz * ny * nx / 8,
		Workers:     1,
	}); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(target.Len() * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := bytes.NewReader(blob.Bytes())
		if _, _, _, err := core.Decode(context.Background(), r, r.Size(), core.Request{Chunk: core.Whole, Level: core.LevelFull, Anchors: anchors, Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFlateStage(b *testing.B) {
	codes := benchCodes(1 << 18)
	codec, err := huffman.Build(codes, 0)
	if err != nil {
		b.Fatal(err)
	}
	var w bitstream.Writer
	if err := codec.Encode(&w, codes); err != nil {
		b.Fatal(err)
	}
	payload := w.Bytes()
	backend := lossless.Default()
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := backend.Compress(payload); err != nil {
			b.Fatal(err)
		}
	}
}
