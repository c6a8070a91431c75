package core

import (
	"bytes"
	"testing"

	"repro/internal/cfnn"
	"repro/internal/chunk"
	"repro/internal/container"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// referenceChunkedHybrid reproduces the pre-shared-inference chunked
// hybrid pipeline exactly: every chunk clones the model and runs CFNN
// inference over its own anchor views, then feeds the per-chunk
// predicted-diff fields through the common downstream pipeline. It is the
// retained reference the shared-inference engine must match byte for
// byte.
func referenceChunkedHybrid(t *testing.T, field *tensor.Tensor, model *cfnn.Model, anchors []*tensor.Tensor, opts ChunkedOptions) []byte {
	t.Helper()
	o := opts.Options.withDefaults()
	eb, err := resolveEB(field, o.Bound)
	if err != nil {
		t.Fatal(err)
	}
	g, err := chunk.Plan(field.Shape(), opts.ChunkVoxels)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumChunks()
	payloads := make([][]byte, n)
	maxErrs := make([]float64, n)
	chunkOpts := o
	chunkOpts.AnchorNames = nil
	chunkOpts.Arena = nil
	for i := 0; i < n; i++ {
		sub, err := g.View(field, i)
		if err != nil {
			t.Fatal(err)
		}
		subAnchors, err := g.Views(anchors, i)
		if err != nil {
			t.Fatal(err)
		}
		m, err := model.Clone()
		if err != nil {
			t.Fatal(err)
		}
		dq, err := predictedDQWith(m, subAnchors, eb, nil, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		res, err := compressCrossFieldDQ(sub, dq, nil, chunkOpts, container.MethodHybrid, eb)
		if err != nil {
			t.Fatal(err)
		}
		payloads[i] = res.Blob
		maxErrs[i] = res.Stats.MaxErr
	}
	var mb bytes.Buffer
	if err := model.Save(&mb); err != nil {
		t.Fatal(err)
	}
	hdr := &chunk.Header{
		Method:     container.MethodHybrid,
		BoundMode:  byte(o.Bound.Mode),
		BoundValue: o.Bound.Value,
		AbsEB:      eb,
		Dims:       append([]int(nil), field.Shape()...),
		Anchors:    append([]string(nil), o.AnchorNames...),
		Model:      mb.Bytes(),
	}
	var buf bytes.Buffer
	if _, err := chunk.EncodeTo(&buf, hdr, g, payloads, maxErrs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSharedInferenceByteIdentical is the shared-inference equivalence
// property test: the one-pass segmented inference engine must produce a
// CFC2 container byte-identical to the reference per-chunk path, across
// ranks, chunk geometries (including uneven tails and single-slab
// chunks), and worker counts.
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
			opts := ChunkedOptions{
				Options:     Options{Bound: quant.AbsBound(0.04), AnchorNames: []string{"self"}},
				ChunkVoxels: c.chunkVoxels,
				Workers:     c.workers,
			}
			res, err := CompressChunked(target, model, anchors, opts)
			if err != nil {
				t.Fatal(err)
			}
			want := referenceChunkedHybrid(t, target, model, anchors, opts)
			if !bytes.Equal(res.Blob, want) {
				t.Fatalf("shared-inference container (%d bytes) differs from reference per-chunk container (%d bytes)",
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
