package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bitstream"
	"repro/internal/container"
	"repro/internal/huffman"
	"repro/internal/parallel"
	"repro/internal/predictor"
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
			p, err := newPlan(blob, raw, codec)
			if err != nil {
				t.Fatalf("iter %d: plan: %v", iter, err)
			}
			p.dq = dq
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

// The block-payload writer, kept as the parity test's reference encoder:
// the package decodes block-coded payloads but no longer writes them.

// blockLocalCodes computes the block-independent residuals: for every
// point, code = q − pred with the prediction's causal horizon reset to the
// point's block origin. Interior points (all neighbors in-block) get
// exactly the sequential codes; only seam planes differ. Blocks write
// disjoint regions, so the loop is block-parallel. hybrid holds the
// hybrid weights, then the bias (nil for the baseline).
func blockLocalCodes(q []int32, dims []int, g *blockGeom, dq [][]float64, hybrid []float64, method container.Method) []int32 {
	out := make([]int32, len(q))
	// Cross-field points go through the feature row at every point, never
	// the decoder's interior path.
	var kn *kernel
	if method != container.MethodBaseline {
		n := len(hybrid) - 1
		f := &Features{q: q, dims: dims, dq: dq, lor: method == container.MethodHybrid}
		kn = newKernel(f, &predictor.Hybrid{W: hybrid[:n], Bias: hybrid[n]})
	}
	parallel.For(g.total, func(b int) {
		lo, hi := g.bounds(b)
		switch len(dims) {
		case 1:
			for i := lo[0]; i < hi[0]; i++ {
				out[i] = q[i] - int32(predictor.LorenzoPred1DFrom(q, i, lo[0]))
			}
		case 2:
			nx := dims[1]
			for i := lo[0]; i < hi[0]; i++ {
				for j := lo[1]; j < hi[1]; j++ {
					p := i*nx + j
					if method == container.MethodBaseline {
						out[p] = q[p] - int32(predictor.LorenzoPred2DFrom(q, nx, i, j, lo[0], lo[1]))
					} else {
						out[p] = q[p] - kn.edge2D(i, j, p, lo)
					}
				}
			}
		default:
			ny, nx := dims[1], dims[2]
			for k := lo[0]; k < hi[0]; k++ {
				for i := lo[1]; i < hi[1]; i++ {
					for j := lo[2]; j < hi[2]; j++ {
						p := (k*ny+i)*nx + j
						if method == container.MethodBaseline {
							out[p] = q[p] - int32(predictor.LorenzoPred3DFrom(q, ny, nx, k, i, j, lo[0], lo[1], lo[2]))
						} else {
							out[p] = q[p] - kn.edge3D(k, i, j, p, lo)
						}
					}
				}
			}
		}
	})
	return out
}

// encodeBlockStreams Huffman-codes one candidate's residuals into
// per-block byte-aligned segments (block-raster order), returning the
// codec, the concatenated raw payload, and the segment lengths.
func encodeBlockStreams(codes []int32, dims []int, g *blockGeom, maxSymbols int) (*huffman.Codec, []byte, []int, error) {
	codec, err := huffman.Build(codes, maxSymbols)
	if err != nil {
		return nil, nil, nil, err
	}
	var w bitstream.Writer
	scratch := make([]int32, 0, len(codes))
	payload := make([]byte, 0, len(codes)/4)
	segLens := make([]int, g.total)
	for b := 0; b < g.total; b++ {
		lo, hi := g.bounds(b)
		s := gatherBlock(scratch, codes, dims, lo, hi)
		w.Reset()
		if err := codec.Encode(&w, s); err != nil {
			return nil, nil, nil, err
		}
		seg := w.Bytes()
		payload = append(payload, seg...)
		segLens[b] = len(seg)
	}
	return codec, payload, segLens, nil
}

// gatherBlock copies the codes of one block out of the raster-order array
// into dst in block-raster order (row spans are contiguous).
func gatherBlock(dst, src []int32, dims, lo, hi []int) []int32 {
	switch len(dims) {
	case 1:
		return append(dst[:0], src[lo[0]:hi[0]]...)
	case 2:
		nx := dims[1]
		out := dst[:0]
		for i := lo[0]; i < hi[0]; i++ {
			out = append(out, src[i*nx+lo[1]:i*nx+hi[1]]...)
		}
		return out
	default:
		ny, nx := dims[1], dims[2]
		out := dst[:0]
		for k := lo[0]; k < hi[0]; k++ {
			for i := lo[1]; i < hi[1]; i++ {
				base := (k*ny + i) * nx
				out = append(out, src[base+lo[2]:base+hi[2]]...)
			}
		}
		return out
	}
}

// TestBlockDecodeHonorsCancellation: a canceled context must abort every
// payload kind's decode — block-coded between fronts, plain and layered
// at their one block — whole or as chunk 1 of a container, and through
// the whole-container chunk loop, at full fidelity and at the base
// level, instead of reconstructing it all. The block-coded payloads are
// the committed fixtures.
func TestBlockDecodeHonorsCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	field := smoothField(t, rng, []int{12, 21, 37})
	bound := quant.RelBound(1e-3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	compressed := func(req EncodeRequest) (mono, chunked []byte) {
		m, err := compress(field, req)
		if err != nil {
			t.Fatalf("compress: %v", err)
		}
		req.ChunkVoxels = 4 * 21 * 37
		c, err := compress(field, req)
		if err != nil {
			t.Fatalf("chunked compress: %v", err)
		}
		return m.Blob, c.Blob
	}
	plainMono, plainChunked := compressed(EncodeRequest{Bound: bound})
	layeredMono, layeredChunked := compressed(EncodeRequest{Bound: bound, Progressive: &ProgressiveSpec{Levels: 3}})
	for _, tc := range []struct {
		name          string
		mono, chunked []byte
		levels        []int
	}{
		{"blocks", goldenBlob(t, "baseline_cfc1v2.cfc"), goldenBlob(t, "chunked_cfc2v3.cfc"), []int{LevelFull, 0}},
		{"plain", plainMono, plainChunked, []int{LevelFull, 0}},
		{"layered", layeredMono, layeredChunked, []int{LevelFull, 0, 1}},
	} {
		for _, c := range []struct {
			blob  []byte
			chunk int
		}{{tc.mono, 0}, {tc.chunked, 1}} {
			for _, level := range tc.levels {
				for _, i := range []int{c.chunk, Whole} {
					r := bytes.NewReader(c.blob)
					if _, _, _, err := Decode(ctx, r, r.Size(), Request{Chunk: i, Level: level, Workers: 2}); !errors.Is(err, context.Canceled) {
						t.Errorf("%s chunk %d of the chunk-%d blob, level %d: decode under canceled ctx = %v, want context.Canceled", tc.name, i, c.chunk, level, err)
					}
				}
			}
		}
	}
}

// goldenBlob reads a committed golden fixture.
func goldenBlob(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden", name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBlockSectionCorruption feeds truncated and corrupted block tables to
// the decoder: every mutation of the committed CFC1 v2 fixture must fail
// cleanly (no panic, no success producing silently wrong dims).
func TestBlockSectionCorruption(t *testing.T) {
	blob := goldenBlob(t, "baseline_cfc1v2.cfc")
	orig, err := Decompress(blob, nil)
	if err != nil {
		t.Fatalf("decompress pristine: %v", err)
	}
	for cut := 1; cut < len(blob); cut++ {
		if _, err := Decompress(blob[:cut], nil); err == nil {
			t.Fatalf("truncation to %d bytes decoded successfully", cut)
		}
	}
	for pos := 0; pos < len(blob); pos++ {
		mut := append([]byte(nil), blob...)
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
