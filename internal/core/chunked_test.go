package core

import (
	"bytes"
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/chunk"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// chunkedBaselineRoundTrip compresses chunked, decompresses through the
// generic Decompress entry point, and checks the bound everywhere.
func chunkedBaselineRoundTrip(t *testing.T, f *tensor.Tensor, chunkVoxels, workers int) *Result {
	t.Helper()
	res, err := compress(f, EncodeRequest{Bound: quant.AbsBound(0.05), ChunkVoxels: chunkVoxels, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decompress(res.Blob, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkBound(t, f, back, 0.05)
	return res
}

func TestChunkedBaselineRoundTripShapes(t *testing.T) {
	f1 := tensor.New(997) // odd size, chunk not dividing the axis
	for i := range f1.Data() {
		f1.Data()[i] = float32(math.Sin(float64(i) / 15))
	}
	cases := []struct {
		name        string
		f           *tensor.Tensor
		chunkVoxels int
	}{
		{"1D-odd", f1, 100},
		{"2D-odd", smoothField2D(37, 41, 60), 3 * 41},
		{"2D-row-per-chunk", smoothField2D(9, 33, 61), 1},
		{"3D-odd", smoothField3D(7, 19, 23, 62), 2 * 19 * 23},
		{"3D-thin-slabs", smoothField3D(6, 16, 16, 63), 16 * 16},
		{"single-chunk", smoothField2D(24, 24, 64), 1 << 22},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res := chunkedBaselineRoundTrip(t, c.f, c.chunkVoxels, 3)
			nc, err := ChunkCount(res.Blob)
			if err != nil {
				t.Fatal(err)
			}
			if c.name == "single-chunk" && nc != 1 {
				t.Fatalf("expected degenerate single chunk, got %d", nc)
			}
			if c.name == "2D-row-per-chunk" && nc != 9 {
				t.Fatalf("expected one row band per chunk, got %d", nc)
			}
		})
	}
}

func TestChunkedDeterministicAcrossWorkerCounts(t *testing.T) {
	f := smoothField3D(10, 20, 20, 65)
	var blobs [][]byte
	for _, w := range []int{1, 2, 5} {
		res, err := compress(f, EncodeRequest{Bound: quant.AbsBound(0.02), ChunkVoxels: 2 * 20 * 20, Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		blobs = append(blobs, res.Blob)
	}
	for i := 1; i < len(blobs); i++ {
		if !bytes.Equal(blobs[0], blobs[i]) {
			t.Fatalf("worker count changed the container bytes (variant %d)", i)
		}
	}
	// Decompression worker count must not change the reconstruction either.
	one, _, _, err := decodeBlob(blobs[0], Request{Chunk: Whole, Level: LevelFull, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	many, _, _, err := decodeBlob(blobs[0], Request{Chunk: Whole, Level: LevelFull, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(float32Bytes(one.Data()), float32Bytes(many.Data())) {
		t.Fatal("decompression worker count changed the reconstruction")
	}
	checkBound(t, f, one, 0.02)
}

func TestChunkedHybridRoundTrip(t *testing.T) {
	for _, rank := range []int{2, 3} {
		var target *tensor.Tensor
		var chunkVoxels int
		if rank == 2 {
			target = smoothField2D(41, 37, 70)
			chunkVoxels = 7 * 37
		} else {
			target = smoothField3D(9, 21, 17, 71)
			chunkVoxels = 2 * 21 * 17
		}
		anchors := []*tensor.Tensor{target.Clone()}
		model := trainTinyModel(t, anchors, target)
		res, err := compress(target, EncodeRequest{
			Bound:       quant.AbsBound(0.05),
			Model:       model,
			Anchors:     anchors,
			AnchorNames: []string{"self"},
			ChunkVoxels: chunkVoxels,
			Workers:     4,
		})
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
		nc, err := ChunkCount(res.Blob)
		if err != nil {
			t.Fatal(err)
		}
		if nc < 2 {
			t.Fatalf("rank %d: want multiple chunks, got %d", rank, nc)
		}
		back, err := Decompress(res.Blob, anchors)
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
		checkBound(t, target, back, 0.05)
		// The model must be stored once at the container level, not per
		// chunk: stats charge it exactly once.
		if res.Stats.ModelBytes == 0 {
			t.Fatalf("rank %d: model bytes missing from stats", rank)
		}
		if res.Stats.CompressedBytes != len(res.Blob) {
			t.Fatalf("rank %d: stats bytes %d != blob %d", rank, res.Stats.CompressedBytes, len(res.Blob))
		}
	}
}

// The chunked engine resolves a relative bound once over the full field:
// per-chunk value ranges must not change the bound, and the seam error must
// respect the same global bound.
func TestChunkedRelBoundMatchesMonolithic(t *testing.T) {
	f := smoothField3D(8, 16, 16, 72)
	// Make chunk value ranges very different to expose any per-chunk
	// bound resolution.
	for i := range f.Data()[:16*16] {
		f.Data()[i] *= 20
	}
	mono, err := compress(f, EncodeRequest{Bound: quant.RelBound(1e-3)})
	if err != nil {
		t.Fatal(err)
	}
	chk, err := compress(f, EncodeRequest{Bound: quant.RelBound(1e-3), ChunkVoxels: 16 * 16})
	if err != nil {
		t.Fatal(err)
	}
	if chk.Stats.AbsEB != mono.Stats.AbsEB {
		t.Fatalf("chunked abs eb %v != monolithic %v", chk.Stats.AbsEB, mono.Stats.AbsEB)
	}
	back, err := Decompress(chk.Blob, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkBound(t, f, back, chk.Stats.AbsEB)
}

func TestDecompressChunkMatchesRegion(t *testing.T) {
	target := smoothField3D(10, 14, 18, 73)
	anchors := []*tensor.Tensor{target.Clone()}
	model := trainTinyModel(t, anchors, target)
	res, err := compress(target, EncodeRequest{Bound: quant.AbsBound(0.05), Model: model, Anchors: anchors, ChunkVoxels: 3 * 14 * 18, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	full, err := Decompress(res.Blob, anchors)
	if err != nil {
		t.Fatal(err)
	}
	nc, err := ChunkCount(res.Blob)
	if err != nil {
		t.Fatal(err)
	}
	slab := 14 * 18
	for i := 0; i < nc; i++ {
		part, start, err := decompressChunk(res.Blob, i, anchors)
		if err != nil {
			t.Fatal(err)
		}
		off := start * slab
		for p, v := range part.Data() {
			if full.Data()[off+p] != v {
				t.Fatalf("chunk %d differs from full reconstruction at %d", i, p)
			}
		}
	}
	if _, _, err := decompressChunk(res.Blob, nc, anchors); err == nil {
		t.Fatal("out-of-range chunk index accepted")
	}
}

// A slab-anchored single-chunk request must reproduce the full-anchored one exactly
// when fed only the chunk's slab range of each anchor — the contract the
// serving layer relies on to avoid whole-anchor decodes.
func TestDecompressChunkWithAnchorSlabsMatches(t *testing.T) {
	target := smoothField3D(10, 14, 18, 74)
	anchors := []*tensor.Tensor{target.Clone()}
	model := trainTinyModel(t, anchors, target)
	res, err := compress(target, EncodeRequest{Bound: quant.AbsBound(0.05), Model: model, Anchors: anchors, ChunkVoxels: 3 * 14 * 18, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	infos, err := ChunkIndex(res.Blob)
	if err != nil {
		t.Fatal(err)
	}
	slab := 14 * 18
	for i, ci := range infos {
		want, wantStart, err := decompressChunk(res.Blob, i, anchors)
		if err != nil {
			t.Fatal(err)
		}
		// Slice exactly the chunk's slab range out of each anchor.
		slabs := make([]*tensor.Tensor, len(anchors))
		for k, a := range anchors {
			lo, hi := ci.Start*slab, (ci.Start+ci.Slabs)*slab
			s, err := tensor.FromSlice(a.Data()[lo:hi], ci.Slabs, 14, 18)
			if err != nil {
				t.Fatal(err)
			}
			slabs[k] = s
		}
		got, start, _, err := decodeBlob(res.Blob, Request{Chunk: i, Level: LevelFull, Anchors: slabs, Slabs: true})
		if err != nil {
			t.Fatal(err)
		}
		if start != wantStart {
			t.Fatalf("chunk %d start %d != %d", i, start, wantStart)
		}
		for p, v := range got.Data() {
			if want.Data()[p] != v {
				t.Fatalf("chunk %d: slab-anchored decode differs from full-anchored at %d", i, p)
			}
		}
	}
	// Wrong-shaped slabs are rejected, not silently misused.
	bad, err := tensor.FromSlice(make([]float32, 14*18), 1, 14, 18)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := decodeBlob(res.Blob, Request{Chunk: 0, Level: LevelFull, Anchors: []*tensor.Tensor{bad}, Slabs: true}); err == nil {
		t.Fatal("wrong-shaped anchor slab accepted")
	}
}

// Random access must not read other chunks: corrupt every payload except
// one and show that chunk still reconstructs.
func TestDecompressChunkIsolatedFromOtherPayloads(t *testing.T) {
	f := smoothField2D(40, 30, 74)
	res, err := compress(f, EncodeRequest{Bound: quant.AbsBound(0.05), ChunkVoxels: 8 * 30})
	if err != nil {
		t.Fatal(err)
	}
	a, err := chunk.Decode(res.Blob)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumChunks() < 3 {
		t.Fatalf("want >= 3 chunks, got %d", a.NumChunks())
	}
	keep := 1
	bad := append([]byte(nil), res.Blob...)
	for i := 0; i < a.NumChunks(); i++ {
		if i == keep {
			continue
		}
		for p := a.Index[i].Offset; p < a.Index[i].Offset+a.Index[i].PayloadLen; p++ {
			bad[p] ^= 0xff
		}
	}
	part, start, err := decompressChunk(bad, keep, nil)
	if err != nil {
		t.Fatalf("isolated chunk failed despite untouched payload: %v", err)
	}
	if start != a.Index[keep].Start {
		t.Fatalf("start = %d, want %d", start, a.Index[keep].Start)
	}
	g, err := a.Grid()
	if err != nil {
		t.Fatal(err)
	}
	want, err := g.View(f, keep)
	if err != nil {
		t.Fatal(err)
	}
	maxErr, ok, err := VerifyBound(want, part, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("isolated chunk out of bound: %v", maxErr)
	}
	// The corrupted chunks must be rejected, not silently decoded.
	if _, _, err := decompressChunk(bad, keep+1, nil); err == nil {
		t.Fatal("corrupt chunk accepted")
	}
	if _, err := Decompress(bad, nil); err == nil {
		t.Fatal("full decompression of corrupt container succeeded")
	}
}

func TestChunkedStreamingMatchesInMemory(t *testing.T) {
	target := smoothField3D(9, 16, 16, 75)
	anchors := []*tensor.Tensor{target.Clone()}
	model := trainTinyModel(t, anchors, target)
	var buf bytes.Buffer
	st, err := Encode(context.Background(), &buf, target, EncodeRequest{
		Bound:       quant.AbsBound(0.05),
		Model:       model,
		Anchors:     anchors,
		ChunkVoxels: 2 * 16 * 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.CompressedBytes != buf.Len() {
		t.Fatalf("stats bytes %d != written %d", st.CompressedBytes, buf.Len())
	}
	mem, err := compress(target, EncodeRequest{Bound: quant.AbsBound(0.05), Model: model, Anchors: anchors, ChunkVoxels: 2 * 16 * 16})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mem.Blob, buf.Bytes()) {
		t.Fatal("streamed container differs from in-memory container")
	}
	fromStream, _, _, err := Decode(context.Background(), bytes.NewReader(buf.Bytes()), int64(buf.Len()), Request{Chunk: Whole, Level: LevelFull, Anchors: anchors})
	if err != nil {
		t.Fatal(err)
	}
	fromMem, err := Decompress(mem.Blob, anchors)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(float32Bytes(fromStream.Data()), float32Bytes(fromMem.Data())) {
		t.Fatal("decompression of the streamed container differs from in-memory decompression")
	}
	checkBound(t, target, fromStream, 0.05)
}

// decodeBlob is Decode over an in-memory blob.
func decodeBlob(blob []byte, req Request) (*tensor.Tensor, int, float64, error) {
	return Decode(context.Background(), bytes.NewReader(blob), int64(len(blob)), req)
}

// decompressChunk decodes chunk i at full fidelity against whole anchors.
func decompressChunk(blob []byte, i int, anchors []*tensor.Tensor) (*tensor.Tensor, int, error) {
	t, start, _, err := decodeBlob(blob, Request{Chunk: i, Level: LevelFull, Anchors: anchors})
	return t, start, err
}

func float32Bytes(f []float32) []byte {
	out := make([]byte, 0, len(f)*4)
	for _, v := range f {
		b := math.Float32bits(v)
		out = append(out, byte(b), byte(b>>8), byte(b>>16), byte(b>>24))
	}
	return out
}

func TestChunkedHybridNeedsAnchors(t *testing.T) {
	target := smoothField2D(24, 24, 76)
	anchors := []*tensor.Tensor{target.Clone()}
	model := trainTinyModel(t, anchors, target)
	res, err := compress(target, EncodeRequest{Bound: quant.AbsBound(0.05), Model: model, Anchors: anchors, ChunkVoxels: 6 * 24})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decompress(res.Blob, nil); !errors.Is(err, ErrNeedAnchors) {
		t.Fatalf("err = %v, want ErrNeedAnchors", err)
	}
	if _, err := Decompress(res.Blob, []*tensor.Tensor{tensor.New(8, 8)}); err == nil {
		t.Fatal("wrong-shape anchors accepted")
	}
	if _, err := compress(target, EncodeRequest{Bound: quant.AbsBound(0.05), Model: model}); err == nil {
		t.Fatal("chunked hybrid compression without anchors accepted")
	}
}

func TestChunkedRejectsCorruptIndex(t *testing.T) {
	f := smoothField2D(30, 30, 77)
	res, err := compress(f, EncodeRequest{Bound: quant.AbsBound(0.05), ChunkVoxels: 10 * 30})
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{4, 16, len(res.Blob) / 2, len(res.Blob) - 1} {
		if _, err := Decompress(res.Blob[:cut], nil); err == nil {
			t.Fatalf("truncated container (%d bytes) accepted", cut)
		}
		// A ReaderAt shorter than the size it claims.
		short := bytes.NewReader(res.Blob[:cut])
		if _, _, _, err := Decode(context.Background(), short, int64(len(res.Blob)), Request{Chunk: Whole, Level: LevelFull}); err == nil {
			t.Fatalf("truncated source (%d bytes) accepted", cut)
		}
	}
}

// CFC1 blobs must keep decompressing through the same entry point after
// the CFC2 routing was added.
func TestCFC1StillDecompresses(t *testing.T) {
	f := smoothField2D(32, 32, 78)
	res, err := compress(f, EncodeRequest{Bound: quant.AbsBound(0.05)})
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decompress(res.Blob, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkBound(t, f, back, 0.05)
	nc, err := ChunkCount(res.Blob)
	if err != nil {
		t.Fatal(err)
	}
	if nc != 1 {
		t.Fatalf("CFC1 chunk count = %d, want 1", nc)
	}
	// A worker-capped request accepts monolithic blobs too.
	viaChunked, _, _, err := decodeBlob(res.Blob, Request{Chunk: Whole, Level: LevelFull, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(float32Bytes(viaChunked.Data()), float32Bytes(back.Data())) {
		t.Fatal("a worker-capped decode differs on a CFC1 blob")
	}
}

// A chunked container of a chunked container's payload must not confuse the
// fuzz-ish single-byte-flip property: flipping any byte of a CFC2 blob
// either errors or yields a right-sized field.
func TestChunkedSingleByteFlips(t *testing.T) {
	f := smoothField2D(16, 16, 79)
	res, err := compress(f, EncodeRequest{Bound: quant.AbsBound(0.05), ChunkVoxels: 4 * 16})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Blob {
		bad := append([]byte(nil), res.Blob...)
		bad[i] ^= 0x55
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic flipping byte %d: %v", i, r)
				}
			}()
			recon, err := Decompress(bad, nil)
			if err == nil && recon != nil && recon.Len() != f.Len() {
				t.Fatalf("byte %d: wrong-size reconstruction accepted", i)
			}
		}()
	}
}
