package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/container"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// smoothField builds a deterministic pseudo-random field with spatial
// correlation, so prediction has something to work with.
func smoothField(t *testing.T, rng *rand.Rand, dims []int) *tensor.Tensor {
	t.Helper()
	n := 1
	for _, d := range dims {
		n *= d
	}
	data := make([]float32, n)
	f1 := 0.05 + rng.Float64()*0.2
	f2 := 0.02 + rng.Float64()*0.1
	for i := range data {
		v := math.Sin(float64(i)*f1) + 0.5*math.Cos(float64(i)*f2) + 0.05*rng.NormFloat64()
		data[i] = float32(v)
	}
	ten, err := tensor.FromSlice(data, dims...)
	if err != nil {
		t.Fatalf("tensor: %v", err)
	}
	return ten
}

func randDims(rng *rand.Rand) []int {
	switch rng.Intn(3) {
	case 0:
		return []int{1 + rng.Intn(4000)}
	case 1:
		return []int{1 + rng.Intn(70), 1 + rng.Intn(70)}
	default:
		return []int{1 + rng.Intn(18), 1 + rng.Intn(20), 1 + rng.Intn(22)}
	}
}

func randDQ(rng *rand.Rand, rank, n int) [][]float64 {
	dq := make([][]float64, rank)
	for a := range dq {
		dq[a] = make([]float64, n)
		for i := range dq[a] {
			dq[a][i] = rng.NormFloat64() * 2
		}
	}
	return dq
}

// TestBlockDecodeParityProperty is the decode-parity property test: for
// random dims, bounds, block edges, methods and worker counts, both block
// modes (wavefront and block-independent) reconstruct the exact prequant
// array the sequential decoder sees — wavefront from the sequential codes
// themselves, independent from the seam-reset codes.
func TestBlockDecodeParityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for iter := 0; iter < 60; iter++ {
		dims := randDims(rng)
		rank := len(dims)
		field := smoothField(t, rng, dims)
		eb := []float64{1e-2, 1e-3, 3e-4}[rng.Intn(3)]
		q, err := quant.Prequantize(field.Data(), eb)
		if err != nil {
			t.Fatalf("prequantize: %v", err)
		}
		n := len(q)

		method := container.MethodBaseline
		var dq [][]float64
		var weights []float64
		if rank >= 2 && rng.Intn(2) == 0 {
			if rng.Intn(2) == 0 {
				method = container.MethodHybrid
			} else {
				method = container.MethodCrossOnly
			}
			dq = randDQ(rng, rank, n)
			numFeats := rank
			if method == container.MethodHybrid {
				numFeats++
			}
			weights = make([]float64, numFeats+1)
			for i := range weights {
				weights[i] = rng.Float64()*0.6 - 0.1
			}
			// Push some weight onto the first feature so predictions are
			// not pure noise.
			weights[0] += 0.7
		}

		// Sequential reference codes.
		seq := referenceCodes(t, q, dims, dq, weights, method)

		edges := make([]int, rank)
		for a := range edges {
			edges[a] = 1 + rng.Intn(dims[a]+3)
		}
		g, err := geomFor(dims, edges)
		if err != nil {
			t.Fatalf("geom: %v", err)
		}
		indep := blockLocalCodes(q, dims, g, dq, weights, method)

		for _, mode := range []struct {
			mode  byte
			codes []int32
		}{
			{container.BlockWavefront, seq},
			{container.BlockIndependent, indep},
		} {
			codec, raw, segs, err := encodeBlockStreams(mode.codes, dims, g, 0)
			if err != nil {
				t.Fatalf("encode blocks: %v", err)
			}
			blob := &container.Blob{
				Header: container.Header{
					Method: method,
					AbsEB:  eb,
					Dims:   dims,
					Hybrid: weights,
				},
				Blocks: &container.BlockSection{Mode: mode.mode, Edges: g.edges, SegLens: segs},
			}
			p, err := newPlan(blob, raw, codec, dq)
			if err != nil {
				t.Fatalf("iter %d: plan: %v", iter, err)
			}
			workers := 1 + rng.Intn(4)
			q2 := make([]int32, n)
			vals := make([]float32, n)
			if err := reconstructBlocks(context.Background(), q2, vals, p, workers); err != nil {
				t.Fatalf("iter %d dims %v edges %v mode %d: reconstruct: %v", iter, dims, edges, mode.mode, err)
			}
			for i := range q2 {
				if q2[i] != q[i] {
					t.Fatalf("iter %d dims %v edges %v mode %d method %v workers %d: q[%d] = %d, want %d",
						iter, dims, edges, mode.mode, method, workers, i, q2[i], q[i])
				}
			}
			want := quant.Dequantize(q, eb)
			for i := range vals {
				if math.Float32bits(vals[i]) != math.Float32bits(want[i]) {
					t.Fatalf("iter %d mode %d: vals[%d] = %x, want %x", iter, mode.mode, i, math.Float32bits(vals[i]), math.Float32bits(want[i]))
				}
			}
		}
	}
}

// referenceCodes computes the sequential residual codes, q − pred(q)
// with the grid origin as every point's causal horizon: the block-local
// codes of the one block spanning the dims, which is how the engine
// decodes a plain payload.
func referenceCodes(t *testing.T, q []int32, dims []int, dq [][]float64, weights []float64, method container.Method) []int32 {
	t.Helper()
	g, err := geomFor(dims, dims)
	if err != nil {
		t.Fatalf("geom: %v", err)
	}
	return blockLocalCodes(q, dims, g, dq, weights, method)
}

// TestBlockDecodeHonorsCancellation: a canceled context must abort every
// payload kind's decode — block-coded between fronts, plain and layered
// at their one block — whole or as chunk 1 of a container, and through
// the whole-container chunk loop, at full fidelity and at the base
// level, instead of reconstructing it all.
func TestBlockDecodeHonorsCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	field := smoothField(t, rng, []int{12, 21, 37})
	bound := quant.RelBound(1e-3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name   string
		opts   Options
		levels []int
	}{
		{"blocks", Options{Bound: bound, Blocks: BlockSpec{Enable: true, Edge: 8}}, []int{LevelFull, 0}},
		{"plain", Options{Bound: bound}, []int{LevelFull, 0}},
		{"layered", Options{Bound: bound, Progressive: &ProgressiveSpec{Levels: 3}}, []int{LevelFull, 0, 1}},
	} {
		mono, err := CompressBaseline(field, tc.opts)
		if err != nil {
			t.Fatalf("%s compress: %v", tc.name, err)
		}
		chunked, err := CompressChunked(field, nil, nil, ChunkedOptions{Options: tc.opts, ChunkVoxels: 4 * 21 * 37})
		if err != nil {
			t.Fatalf("%s chunked compress: %v", tc.name, err)
		}
		for _, c := range []struct {
			blob  []byte
			chunk int
		}{{mono.Blob, 0}, {chunked.Blob, 1}} {
			for _, level := range tc.levels {
				if _, _, _, err := decompressChunk(ctx, c.blob, c.chunk, level, nil, true, 2); !errors.Is(err, context.Canceled) {
					t.Errorf("%s chunk %d level %d: decode under canceled ctx = %v, want context.Canceled", tc.name, c.chunk, level, err)
				}
				if _, _, err := decompressBlob(ctx, c.blob, nil, level, 2); !errors.Is(err, context.Canceled) {
					t.Errorf("%s whole decode of the chunk-%d blob, level %d: decode under canceled ctx = %v, want context.Canceled", tc.name, c.chunk, level, err)
				}
			}
		}
	}
}

// TestBlockCompressDecompressEndToEnd exercises the full public path:
// compression with Blocks enabled must produce block-coded containers that
// decompress byte-identically to the plain sequential ones at any worker
// count, for both monolithic and chunked containers.
func TestBlockCompressDecompressEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, dims := range [][]int{{3000}, {61, 83}, {13, 21, 37}} {
		field := smoothField(t, rng, dims)
		opts := Options{Bound: quant.RelBound(1e-3)}
		plain, err := CompressBaseline(field, opts)
		if err != nil {
			t.Fatalf("plain compress: %v", err)
		}
		opts.Blocks = BlockSpec{Enable: true, Edge: 16}
		blocked, err := CompressBaseline(field, opts)
		if err != nil {
			t.Fatalf("block compress: %v", err)
		}
		if blocked.Stats.BlockMode == 0 {
			t.Fatalf("dims %v: block compression reported no block mode", dims)
		}
		b, err := container.Decode(blocked.Blob)
		if err != nil {
			t.Fatalf("decode blocked blob: %v", err)
		}
		if b.Blocks == nil {
			t.Fatalf("dims %v: blocked blob has no block section", dims)
		}
		want, err := Decompress(plain.Blob, nil)
		if err != nil {
			t.Fatalf("plain decompress: %v", err)
		}
		for _, workers := range []int{0, 1, 2, 4} {
			got, _, err := DecompressChunkWith(blocked.Blob, 0, nil, workers)
			if err != nil {
				t.Fatalf("block decompress (workers=%d): %v", workers, err)
			}
			for i, v := range got.Data() {
				if math.Float32bits(v) != math.Float32bits(want.Data()[i]) {
					t.Fatalf("dims %v workers %d: output differs at %d", dims, workers, i)
				}
			}
		}

		// Chunked: CFC2 v3 container, decoded via every public entry.
		copts := ChunkedOptions{Options: opts, ChunkVoxels: field.Len() / 3}
		chunked, err := CompressChunked(field, nil, nil, copts)
		if err != nil {
			t.Fatalf("chunked block compress: %v", err)
		}
		full, err := DecompressChunked(chunked.Blob, nil)
		if err != nil {
			t.Fatalf("chunked decompress: %v", err)
		}
		for i, v := range full.Data() {
			if math.Float32bits(v) != math.Float32bits(want.Data()[i]) {
				t.Fatalf("dims %v chunked: output differs at %d", dims, i)
			}
		}
		nchunks, err := ChunkCount(chunked.Blob)
		if err != nil {
			t.Fatalf("chunk count: %v", err)
		}
		slab := field.Len() / dims[0]
		for ci := 0; ci < nchunks; ci++ {
			for _, workers := range []int{1, 4} {
				part, start, err := DecompressChunkWith(chunked.Blob, ci, nil, workers)
				if err != nil {
					t.Fatalf("chunk %d (workers=%d): %v", ci, workers, err)
				}
				off := start * slab
				for i, v := range part.Data() {
					if math.Float32bits(v) != math.Float32bits(want.Data()[off+i]) {
						t.Fatalf("dims %v chunk %d workers %d: differs at %d", dims, ci, workers, i)
					}
				}
			}
		}
	}
}

// TestBlockSectionCorruption feeds truncated and corrupted block tables to
// the decoder: every mutation must fail cleanly (no panic, no success
// producing silently wrong dims).
func TestBlockSectionCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	field := smoothField(t, rng, []int{40, 50})
	opts := Options{Bound: quant.RelBound(1e-3), Blocks: BlockSpec{Enable: true, Edge: 16}}
	res, err := CompressBaseline(field, opts)
	if err != nil {
		t.Fatalf("compress: %v", err)
	}
	orig, err := Decompress(res.Blob, nil)
	if err != nil {
		t.Fatalf("decompress pristine: %v", err)
	}
	for cut := 1; cut < len(res.Blob); cut += 97 {
		if _, err := Decompress(res.Blob[:cut], nil); err == nil {
			t.Fatalf("truncation to %d bytes decoded successfully", cut)
		}
	}
	for pos := 0; pos < len(res.Blob); pos++ {
		mut := append([]byte(nil), res.Blob...)
		mut[pos] ^= 0x55
		got, err := Decompress(mut, nil)
		if err != nil {
			continue
		}
		// A flip the format cannot detect (e.g. inside code bytes) may
		// still decode; it must at least preserve the dims contract.
		if fmt.Sprint(got.Shape()) != fmt.Sprint(orig.Shape()) {
			t.Fatalf("flip at %d decoded to dims %v", pos, got.Shape())
		}
	}
}
