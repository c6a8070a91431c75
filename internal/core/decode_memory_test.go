package core

import (
	"errors"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/cfnn"
	"repro/internal/chunk"
	"repro/internal/container"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// memoryFixture is a smooth nz×ny×nx target, three anchors and a freshly
// trained width-features CFNN over them.
func memoryFixture(tb testing.TB, nz, ny, nx, features int) (*tensor.Tensor, []*tensor.Tensor, *cfnn.Model) {
	tb.Helper()
	target := smoothField3D(nz, ny, nx, 41)
	anchors := []*tensor.Tensor{smoothField3D(nz, ny, nx, 42), smoothField3D(nz, ny, nx, 43), smoothField3D(nz, ny, nx, 44)}
	model, err := cfnn.New(cfnn.Config{SpatialRank: 3, NumAnchors: len(anchors), Features: features, Seed: 5})
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := model.Train(anchors, target, cfnn.TrainConfig{
		Epochs: 1, StepsPerEpoch: 2, Batch: 1, PatchD: 4, PatchH: 12, PatchW: 12, Seed: 6,
	}); err != nil {
		tb.Fatal(err)
	}
	return target, anchors, model
}

// chunkedHybrid compresses memoryFixture's target into a CFC2 container
// of chunkSlabs-slab chunks, and returns the container and the anchors.
func chunkedHybrid(tb testing.TB, nz, ny, nx, features, chunkSlabs int) ([]byte, []*tensor.Tensor) {
	tb.Helper()
	target, anchors, model := memoryFixture(tb, nz, ny, nx, features)
	res, err := compress(target, EncodeRequest{
		Bound:       quant.RelBound(1e-3),
		Model:       model,
		Anchors:     anchors,
		ChunkVoxels: chunkSlabs * ny * nx,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return res.Blob, anchors
}

// TestDecodeWholeMemoryBound pins chunk-by-chunk decode: a whole hybrid
// decode of an 8-chunk field runs each chunk's CFNN inference in a
// chunk-sized arena per worker, so at 1 and 2 workers it allocates less
// than one whole-field activation buffer (features × voxels × 8 B) would
// take — the floor of a whole-field inference pass, which holds two.
func TestDecodeWholeMemoryBound(t *testing.T) {
	const nz, ny, nx, features = 16, 48, 48, 14
	blob, anchors := chunkedHybrid(t, nz, ny, nx, features, 2)
	want, err := Decompress(blob, anchors)
	if err != nil {
		t.Fatal(err)
	}
	limit := uint64(features * nz * ny * nx * 8)
	for _, workers := range []int{1, 2} {
		req := Request{Chunk: Whole, Level: LevelFull, Anchors: anchors, Workers: workers}
		least := ^uint64(0)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			got, _, _, err := decodeBlob(blob, req)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range got.Data() {
				if v != want.Data()[i] {
					t.Fatalf("workers %d: value %d is %v, want %v", workers, i, v, want.Data()[i])
				}
			}
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		if least >= limit {
			t.Errorf("workers %d: a whole decode allocates %d B, want under %d B (one whole-field activation)", workers, least, limit)
		}
	}
}

// BenchmarkDecodeWhole3D is one whole-field hybrid decode at the serving
// benchmark's shape: 24×64×64, width 14, 2 workers, in 4 chunks, and in 3
// chunks that the workers do not divide.
//
//	go test -run '^$' -bench DecodeWhole3D -benchtime 20x ./internal/core
func BenchmarkDecodeWhole3D(b *testing.B) {
	for _, chunks := range []int{4, 3} {
		b.Run(fmt.Sprintf("chunks=%d", chunks), func(b *testing.B) {
			blob, anchors := chunkedHybrid(b, 24, 64, 64, 14, 24/chunks)
			req := Request{Chunk: Whole, Level: LevelFull, Anchors: anchors, Workers: 2}
			b.SetBytes(int64(24 * 64 * 64 * 4))
			b.ReportAllocs()
			for b.Loop() {
				if _, _, _, err := decodeBlob(blob, req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestDecodeRejectsOversizedChunks: a CFC2 index whose chunks declare more
// values than their payloads can hold (one Huffman bit per value, expanded
// at most lossless.MaxRatio-fold) is rejected before the decode allocates
// its output. The container is under 100 bytes and declares 4096×64×64
// values in two chunks, a 64 MiB output.
func TestDecodeRejectsOversizedChunks(t *testing.T) {
	dims := []int{4096, 64, 64}
	g, err := chunk.FromCounts(dims, []int{2048, 2048})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := chunk.Encode(&chunk.Header{
		Method: container.MethodBaseline, BoundMode: byte(quant.Abs), BoundValue: 0.01, AbsEB: 0.01, Dims: dims,
	}, g, [][]byte{make([]byte, 8), make([]byte, 8)}, []float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{Whole, 1} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, _, err := decodeBlob(blob, Request{Chunk: i, Level: LevelFull, Workers: 2})
		runtime.ReadMemStats(&after)
		if !errors.Is(err, container.ErrCorrupt) {
			t.Errorf("chunk %d of the %d-byte container: err = %v, want ErrCorrupt", i, len(blob), err)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
			t.Errorf("chunk %d of the %d-byte container: decode allocated %d B, want under 1 MiB", i, len(blob), n)
		}
	}
}
