package core

import (
	"sync"
	"testing"

	"repro/internal/quant"
	"repro/internal/tensor"
)

// TestHybridChunkedSharedSlabRace is the race regression test for the
// chunk loop. Every concurrent chunk worker, compression and
// decompression alike, runs inference with the one shared model over slab
// views of the same caller-supplied anchor tensors, in an arena it owns
// while the chunk runs, with no synchronization. Under -race this asserts
// that sharing is sound: the model and anchors are only read, and an arena
// passes from chunk to chunk only through the loop's handoff. Several
// whole-field decodes run concurrently on top, plus concurrent
// random-access chunk decodes, to widen the overlap window.
func TestHybridChunkedSharedSlabRace(t *testing.T) {
	target := smoothField3D(12, 16, 16, 91)
	anchors := []*tensor.Tensor{target.Clone()}
	model := trainTinyModel(t, anchors, target)

	// Compression side: four concurrent chunk workers, each inferring
	// over its own views of the shared anchor tensors.
	res, err := compress(target, EncodeRequest{
		Bound:       quant.AbsBound(0.05),
		Model:       model,
		Anchors:     anchors,
		AnchorNames: []string{"self"},
		ChunkVoxels: 2 * 16 * 16, // 6 chunks
		Workers:     4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if nc, err := ChunkCount(res.Blob); err != nil || nc != 6 {
		t.Fatalf("ChunkCount = %d, %v; want 6", nc, err)
	}

	// Decompression side: each whole-field decode runs one shared
	// inference pass whose slabs its four chunk workers read; three such
	// decodes run concurrently, all reading the same anchor tensors.
	var wg sync.WaitGroup
	outs := make([]*tensor.Tensor, 3)
	errs := make([]error, 3)
	for g := range outs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			outs[g], _, _, errs[g] = decodeBlob(res.Blob, Request{Chunk: Whole, Level: LevelFull, Anchors: anchors, Workers: 4})
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("decode %d: %v", g, err)
		}
		checkBound(t, target, outs[g], 0.05)
		for i, v := range outs[g].Data() {
			if v != outs[0].Data()[i] {
				t.Fatalf("concurrent decodes disagree at %d", i)
			}
		}
	}

	// Random access on the same blob from many goroutines at once: each
	// call loads its own model from the container, and must agree
	// bit-for-bit with the whole-field decodes.
	wg = sync.WaitGroup{}
	cerrs := make([]error, 6)
	for ci := 0; ci < 6; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			part, start, err := decompressChunk(res.Blob, ci, anchors)
			if err != nil {
				cerrs[ci] = err
				return
			}
			off := start * 16 * 16
			for i, v := range part.Data() {
				if v != outs[0].Data()[off+i] {
					cerrs[ci] = errMismatch(ci, i)
					return
				}
			}
		}(ci)
	}
	wg.Wait()
	for ci, err := range cerrs {
		if err != nil {
			t.Fatalf("chunk %d: %v", ci, err)
		}
	}
}

type chunkMismatch struct{ chunk, idx int }

func errMismatch(c, i int) error { return chunkMismatch{c, i} }

func (e chunkMismatch) Error() string {
	return "chunk decode differs from full reconstruction"
}
