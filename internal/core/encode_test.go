package core

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// Result is one encode held in memory: the container Encode wrote and its
// stats.
type Result struct {
	Blob  []byte
	Stats Stats
}

// compress is Encode into memory, the form most tests want.
func compress(field *tensor.Tensor, req EncodeRequest) (*Result, error) {
	var buf bytes.Buffer
	st, err := Encode(context.Background(), &buf, field, req)
	if err != nil {
		return nil, err
	}
	return &Result{Blob: buf.Bytes(), Stats: *st}, nil
}

// compressCrossOnly is CompressCrossOnly into memory.
func compressCrossOnly(field *tensor.Tensor, req EncodeRequest) (*Result, error) {
	var buf bytes.Buffer
	st, err := CompressCrossOnly(context.Background(), &buf, field, req)
	if err != nil {
		return nil, err
	}
	return &Result{Blob: buf.Bytes(), Stats: *st}, nil
}

// TestEncodeMemoryBound pins chunk-by-chunk encode, the mirror of
// TestDecodeWholeMemoryBound: a hybrid encode of an 8-chunk field runs
// each chunk's CFNN inference over its own anchor views in a chunk-sized
// arena per worker, so at 1 and 2 workers it allocates less than three
// whole-field activation buffers (features × voxels × 8 B each). A
// whole-field inference pass holds two of them and its diffs besides.
func TestEncodeMemoryBound(t *testing.T) {
	const nz, ny, nx, features = 16, 48, 48, 14
	target, anchors, model := memoryFixture(t, nz, ny, nx, features)
	req := EncodeRequest{Bound: quant.RelBound(1e-3), Model: model, Anchors: anchors, ChunkVoxels: 2 * ny * nx}
	want, err := compress(target, req)
	if err != nil {
		t.Fatal(err)
	}
	limit := uint64(3 * features * nz * ny * nx * 8)
	for _, workers := range []int{1, 2} {
		req.Workers = workers
		least := ^uint64(0)
		for range 3 {
			var buf bytes.Buffer
			buf.Grow(len(want.Blob))
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := Encode(context.Background(), &buf, target, req)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), want.Blob) {
				t.Fatalf("workers %d: bytes differ from the default encode", workers)
			}
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		t.Logf("workers %d: an encode allocates %d B (limit %d B)", workers, least, limit)
		if least >= limit {
			t.Errorf("workers %d: an encode allocates %d B, want under %d B (three whole-field activations)", workers, least, limit)
		}
	}
}

// cancelAfter is a context whose Err reports context.Canceled from its
// (k+2)th call on. The chunk loop checks Err once before each chunk, so on
// one worker chunks 0..k run and the context is cancelled before chunk
// k+1.
type cancelAfter struct {
	context.Context
	k     int64
	calls atomic.Int64
}

func (c *cancelAfter) Err() error {
	if c.calls.Add(1) > c.k+1 {
		return context.Canceled
	}
	return nil
}

// TestEncodeHonorsCancellation: an encode whose context is cancelled after
// chunk k returns context.Canceled, runs no later chunk (each chunk
// quantizes once, which Stages counts) and writes nothing.
func TestEncodeHonorsCancellation(t *testing.T) {
	target := smoothField3D(8, 12, 14, 77)
	anchors := []*tensor.Tensor{target.Clone()}
	model := trainTinyModel(t, anchors, target)
	for _, k := range []int64{0, 2, 6} {
		for _, hybrid := range []bool{false, true} {
			stages := obs.NewStages()
			req := EncodeRequest{Bound: quant.AbsBound(0.05), ChunkVoxels: 12 * 14, Workers: 1, Stages: stages}
			if hybrid {
				req.Model, req.Anchors = model, anchors
			}
			var buf bytes.Buffer
			_, err := Encode(&cancelAfter{Context: context.Background(), k: k}, &buf, target, req)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("k=%d hybrid=%v: err = %v, want context.Canceled", k, hybrid, err)
			}
			if buf.Len() != 0 {
				t.Errorf("k=%d hybrid=%v: a cancelled encode wrote %d bytes", k, hybrid, buf.Len())
			}
			var ran int64
			for _, st := range stages.Snapshot() {
				if st.Stage == "quantize" {
					ran = st.Count
				}
			}
			if ran != k+1 {
				t.Errorf("k=%d hybrid=%v: %d chunks ran, want %d", k, hybrid, ran, k+1)
			}
		}
	}
	// A context already done stops every worker before its first chunk.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Encode(ctx, &bytes.Buffer{}, target, EncodeRequest{Bound: quant.AbsBound(0.05), ChunkVoxels: 12 * 14, Workers: 2}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled ctx, 2 workers: err = %v, want context.Canceled", err)
	}
}
