// Package chunk implements the chunked compression layer: shape-aware
// partitioning of a field into independent blocks and the random-access
// CFC2 container that stores the shared header and CFNN model once
// followed by one payload per chunk. Per-chunk work runs on
// parallel.ForErr's bounded worker pool.
//
// Chunks are slabs along the slowest axis (axis 0): row bands for 2D
// fields, z-slabs for 3D fields, plain ranges for 1D. Because the fields
// are row-major with axis 0 slowest, every chunk is a contiguous region of
// the flat data array, so chunk views are zero-copy and streaming
// reassembly writes each chunk straight into its final position.
package chunk

import (
	"fmt"

	"repro/internal/tensor"
)

// DefaultChunkVoxels is the target chunk size (values per chunk) when the
// caller passes 0: 2 Mi values = 8 MiB of float32, large enough to amortize
// per-chunk Huffman tables, small enough to expose parallelism on modest
// fields.
const DefaultChunkVoxels = 1 << 21

// Grid describes how a field's slowest axis is partitioned into chunks.
// Chunk i covers slabs [Start(i), Start(i)+Count(i)) along axis 0 and the
// full extent of every other axis.
type Grid struct {
	dims   []int
	starts []int
	counts []int
	slab   int // voxels per unit slab: product of dims[1:]
}

// Plan partitions dims (rank 1-3, slowest axis first) into chunks of
// roughly chunkVoxels values each. chunkVoxels <= 0 selects
// DefaultChunkVoxels. Every chunk spans at least one slab, so very large
// chunkVoxels degenerates to a single chunk.
func Plan(dims []int, chunkVoxels int) (*Grid, error) {
	if len(dims) < 1 || len(dims) > 3 {
		return nil, fmt.Errorf("chunk: rank %d unsupported", len(dims))
	}
	slab := 1
	for i, d := range dims {
		if d <= 0 {
			return nil, fmt.Errorf("chunk: non-positive dim %d at axis %d", d, i)
		}
		if i > 0 {
			slab *= d
		}
	}
	if chunkVoxels <= 0 {
		chunkVoxels = DefaultChunkVoxels
	}
	per := chunkVoxels / slab
	if per < 1 {
		per = 1
	}
	// Never plan more chunks than a decoder will accept: tiny chunkVoxels
	// on a long axis is rounded up rather than producing an undecodable
	// container.
	if minPer := (dims[0] + maxChunks - 1) / maxChunks; per < minPer {
		per = minPer
	}
	if per > dims[0] {
		per = dims[0]
	}
	counts := make([]int, 0, (dims[0]+per-1)/per)
	for remaining := dims[0]; remaining > 0; remaining -= per {
		c := per
		if c > remaining {
			c = remaining
		}
		counts = append(counts, c)
	}
	return FromCounts(dims, counts)
}

// FromCounts rebuilds a grid from explicit per-chunk slab counts (the form
// stored in a CFC2 index). The counts must be positive and sum to dims[0].
func FromCounts(dims []int, counts []int) (*Grid, error) {
	if len(dims) < 1 || len(dims) > 3 {
		return nil, fmt.Errorf("chunk: rank %d unsupported", len(dims))
	}
	slab := 1
	for i, d := range dims {
		if d <= 0 {
			return nil, fmt.Errorf("chunk: non-positive dim %d at axis %d", d, i)
		}
		if i > 0 {
			slab *= d
		}
	}
	if len(counts) == 0 {
		return nil, fmt.Errorf("chunk: empty chunk list")
	}
	starts := make([]int, len(counts))
	total := 0
	for i, c := range counts {
		if c <= 0 {
			return nil, fmt.Errorf("chunk: non-positive slab count %d in chunk %d", c, i)
		}
		starts[i] = total
		total += c
	}
	if total != dims[0] {
		return nil, fmt.Errorf("chunk: slab counts sum to %d, axis 0 is %d", total, dims[0])
	}
	return &Grid{
		dims:   append([]int(nil), dims...),
		starts: starts,
		counts: append([]int(nil), counts...),
		slab:   slab,
	}, nil
}

// NumChunks returns the number of chunks.
func (g *Grid) NumChunks() int { return len(g.counts) }

// Dims returns the full-field dimensions. The slice must not be modified.
func (g *Grid) Dims() []int { return g.dims }

// Start returns chunk i's first slab index along axis 0.
func (g *Grid) Start(i int) int { return g.starts[i] }

// Count returns chunk i's slab count along axis 0.
func (g *Grid) Count(i int) int { return g.counts[i] }

// ChunkDims returns chunk i's dimensions.
func (g *Grid) ChunkDims(i int) []int {
	d := append([]int(nil), g.dims...)
	d[0] = g.counts[i]
	return d
}

// Offset returns chunk i's flat starting offset in the field's data array.
func (g *Grid) Offset(i int) int { return g.starts[i] * g.slab }

// Voxels returns the number of values in chunk i.
func (g *Grid) Voxels(i int) int { return g.counts[i] * g.slab }

// View returns a zero-copy tensor over chunk i of t, which must have the
// grid's dimensions. Chunks are contiguous in row-major order, so the view
// shares t's storage.
func (g *Grid) View(t *tensor.Tensor, i int) (*tensor.Tensor, error) {
	if !sameDims(t.Shape(), g.dims) {
		return nil, fmt.Errorf("chunk: tensor shape %v != grid dims %v", t.Shape(), g.dims)
	}
	if i < 0 || i >= len(g.counts) {
		return nil, fmt.Errorf("chunk: index %d out of [0,%d)", i, len(g.counts))
	}
	lo := g.Offset(i)
	return tensor.FromSlice(t.Data()[lo:lo+g.Voxels(i)], g.ChunkDims(i)...)
}

// Views returns zero-copy chunk-i views of several same-shaped tensors
// (e.g. the anchor fields accompanying a target chunk).
func (g *Grid) Views(ts []*tensor.Tensor, i int) ([]*tensor.Tensor, error) {
	if len(ts) == 0 {
		return nil, nil
	}
	out := make([]*tensor.Tensor, len(ts))
	for k, t := range ts {
		v, err := g.View(t, i)
		if err != nil {
			return nil, fmt.Errorf("chunk: tensor %d: %w", k, err)
		}
		out[k] = v
	}
	return out, nil
}

func sameDims(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
