package core

import (
	"bytes"
	"testing"

	"repro/internal/chunk"
	"repro/internal/container"
	"repro/internal/nn"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// referenceChunkedHybrid encodes every chunk of a hybrid field on its
// own, serially, each with a clone of the model in a fresh arena on one
// kernel worker, and assembles the CFC2 container from those payloads.
func referenceChunkedHybrid(t *testing.T, field *tensor.Tensor, req EncodeRequest) []byte {
	t.Helper()
	e := &encoder{req: req, method: container.MethodHybrid}
	var err error
	if e.eb, err = resolveEB(field, req.Bound); err != nil {
		t.Fatal(err)
	}
	if e.g, err = chunk.Plan(field.Shape(), req.ChunkVoxels); err != nil {
		t.Fatal(err)
	}
	n := e.g.NumChunks()
	payloads := make([][]byte, n)
	maxErrs := make([]float64, n)
	for i := 0; i < n; i++ {
		ce := *e
		if ce.req.Model, err = req.Model.Clone(); err != nil {
			t.Fatal(err)
		}
		payload, st, err := ce.chunk(field, i, nn.NewArena(), 1)
		if err != nil {
			t.Fatal(err)
		}
		payloads[i], maxErrs[i] = payload, st.MaxErr
	}
	var mb bytes.Buffer
	if err := req.Model.Save(&mb); err != nil {
		t.Fatal(err)
	}
	hdr := &chunk.Header{
		Method:     container.MethodHybrid,
		BoundMode:  byte(req.Bound.Mode),
		BoundValue: req.Bound.Value,
		AbsEB:      e.eb,
		Dims:       append([]int(nil), field.Shape()...),
		Anchors:    append([]string(nil), req.AnchorNames...),
		Model:      mb.Bytes(),
	}
	var buf bytes.Buffer
	if _, err := chunk.EncodeTo(&buf, hdr, e.g, payloads, maxErrs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSharedInferenceByteIdentical pins the chunk loop's shared
// inference arenas: Encode, whose in-flight workers carry one arena from
// chunk to chunk and split the kernel workers between them, must write a
// CFC2 container byte-identical to referenceChunkedHybrid's, which gives
// every chunk a fresh arena and model clone, across ranks, chunk
// geometries (including uneven tails and single-slab chunks), and worker
// counts.
func TestSharedInferenceByteIdentical(t *testing.T) {
	cases := []struct {
		name        string
		rank        int
		dims        []int
		chunkVoxels int
		workers     int
	}{
		{"3D-even", 3, []int{8, 12, 14}, 2 * 12 * 14, 1},
		{"3D-thin-slabs", 3, []int{6, 10, 12}, 10 * 12, 3},
		{"3D-uneven-tail", 3, []int{7, 11, 13}, 3 * 11 * 13, 2},
		{"3D-single-chunk", 3, []int{5, 9, 11}, 1 << 20, 1},
		{"2D-rows", 2, []int{30, 22}, 4 * 22, 2},
		{"2D-row-per-chunk", 2, []int{12, 17}, 1, 4},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var target *tensor.Tensor
			if c.rank == 3 {
				target = smoothField3D(c.dims[0], c.dims[1], c.dims[2], 171)
			} else {
				target = smoothField2D(c.dims[0], c.dims[1], 172)
			}
			anchors := []*tensor.Tensor{target.Clone()}
			model := trainTinyModel(t, anchors, target)
			req := EncodeRequest{
				Bound:       quant.AbsBound(0.04),
				Model:       model,
				Anchors:     anchors,
				AnchorNames: []string{"self"},
				ChunkVoxels: c.chunkVoxels,
				Workers:     c.workers,
			}
			res, err := compress(target, req)
			if err != nil {
				t.Fatal(err)
			}
			want := referenceChunkedHybrid(t, target, req)
			if !bytes.Equal(res.Blob, want) {
				t.Fatalf("Encode container (%d bytes) differs from reference per-chunk container (%d bytes)",
					len(res.Blob), len(want))
			}

			// Decompression cross-check: the whole decode, whose workers
			// carry one arena from chunk to chunk, must agree bit for bit
			// with random access to each chunk in a fresh arena.
			full, err := Decompress(res.Blob, anchors)
			if err != nil {
				t.Fatal(err)
			}
			nc, err := ChunkCount(res.Blob)
			if err != nil {
				t.Fatal(err)
			}
			slab := 1
			for _, d := range target.Shape()[1:] {
				slab *= d
			}
			for ci := 0; ci < nc; ci++ {
				part, start, err := decompressChunk(res.Blob, ci, anchors)
				if err != nil {
					t.Fatal(err)
				}
				off := start * slab
				for i, v := range part.Data() {
					if v != full.Data()[off+i] {
						t.Fatalf("chunk %d: random-access decode differs from whole decode at %d", ci, i)
					}
				}
			}
			checkBound(t, target, full, res.Stats.AbsEB)
		})
	}
}
