package crossfield

import (
	"bytes"
	"context"
	"fmt"
	"io"

	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/tensor"
)

// Option configures a compression call. Options are shared by the
// single-field entry points (CompressBaseline, Codec.Compress) and the
// dataset-level CompressDataset; options that only make sense at one level
// are rejected with an error at the other, so misuse fails loudly instead
// of being silently ignored.
type Option interface {
	applyOption(*compressConfig) error
}

// compressConfig is the resolved option set.
type compressConfig struct {
	chunked     bool
	chunkVoxels int // resolved: > 0 exactly when chunked
	workers     int
	progressive *core.ProgressiveSpec
	fieldBounds map[string]ErrorBound
	timings     *DatasetTimings
}

// encode is the one core.Encode call behind every compression entry
// point: req, which names the field's bound, model and stage sink, takes
// the resolved layout, layering and worker bound.
func (c *compressConfig) encode(w io.Writer, field *tensor.Tensor, req core.EncodeRequest) (*Stats, error) {
	req.ChunkVoxels, req.Progressive, req.Workers = c.chunkVoxels, c.progressive, c.workers
	return core.Encode(context.Background(), w, field, req)
}

// compress is encode into memory.
func (c *compressConfig) compress(field *tensor.Tensor, req core.EncodeRequest) (*Compressed, error) {
	var buf bytes.Buffer
	st, err := c.encode(&buf, field, req)
	if err != nil {
		return nil, err
	}
	return &Compressed{Blob: buf.Bytes(), Stats: *st}, nil
}

// optionFunc adapts a closure to the Option interface.
type optionFunc func(*compressConfig) error

func (f optionFunc) applyOption(c *compressConfig) error { return f(c) }

// WithChunks selects the chunked parallel engine with the given target
// number of values per chunk (rounded to whole slabs along the slowest
// axis). voxels == 0 selects the default of ~2M values per chunk; negative
// values are rejected.
func WithChunks(voxels int) Option {
	return optionFunc(func(c *compressConfig) error {
		if voxels < 0 {
			return fmt.Errorf("crossfield: WithChunks(%d): chunk voxels must be >= 0 (0 = default)", voxels)
		}
		c.chunked = true
		c.chunkVoxels = voxels
		return nil
	})
}

// WithWorkers bounds how many chunks compress concurrently and selects the
// chunked engine. n == 0 means GOMAXPROCS; negative values are rejected.
func WithWorkers(n int) Option {
	return optionFunc(func(c *compressConfig) error {
		if n < 0 {
			return fmt.Errorf("crossfield: WithWorkers(%d): workers must be >= 0 (0 = GOMAXPROCS)", n)
		}
		c.chunked = true
		c.workers = n
		return nil
	})
}

// WithProgressive writes layered payloads for progressive multi-resolution
// retrieval: the quantized integers split into a base layer at a relaxed
// bound plus levels-1 refinement bit-plane layers, each independently
// entropy-coded and CRC'd, so a reader can stop after any payload prefix
// and reconstruct with a provable error bound — and consuming every layer
// is bit-identical to a non-progressive decode. levels counts the base
// layer and must be in [2,8]; each extra level adds two refinement bits
// (quartering the preview bound). Containers become CFC1 v3 / CFC2 v4 /
// CFC3 v3 (older readers reject them up front). Decode any level with
// Decode (DecodeRequest.Level) or Archive.DecodeFieldAtLevel.
func WithProgressive(levels int) Option {
	return optionFunc(func(c *compressConfig) error {
		if levels < 2 || levels > 8 {
			return fmt.Errorf("crossfield: WithProgressive(%d): levels out of [2,8]", levels)
		}
		if c.progressive == nil {
			c.progressive = &core.ProgressiveSpec{}
		}
		c.progressive.Levels = levels
		return nil
	})
}

// WithPreviewBound sets the target error bound of the progressive base
// layer, in the same mode (absolute or range-relative) as the compression
// bound, and implies WithProgressive(2) when no level count was chosen.
// The layering drops the largest bit count whose provable base bound still
// meets the preview; the preview must exceed 3× the full bound. Combine
// with WithProgressive(n) to spread the refinement across more levels.
func WithPreviewBound(b float64) Option {
	return optionFunc(func(c *compressConfig) error {
		if !(b > 0) {
			return fmt.Errorf("crossfield: WithPreviewBound(%g): bound must be > 0", b)
		}
		if c.progressive == nil {
			c.progressive = &core.ProgressiveSpec{}
		}
		c.progressive.PreviewBound = b
		return nil
	})
}

// WithFieldBound overrides the dataset-wide error bound for one named field
// of a CompressDataset call. It is rejected by the single-field entry
// points, and CompressDataset rejects names that match no field in the
// dataset.
func WithFieldBound(name string, bound ErrorBound) Option {
	return optionFunc(func(c *compressConfig) error {
		if name == "" {
			return fmt.Errorf("crossfield: WithFieldBound: empty field name")
		}
		if c.fieldBounds == nil {
			c.fieldBounds = make(map[string]ErrorBound)
		}
		c.fieldBounds[name] = bound
		return nil
	})
}

// WithStageTimings records each field's per-stage compression wall time
// (inference, quantize, predict, huffman, flate) into t. Like
// WithFieldBound it applies only to CompressDataset; the single-field
// entry points reject it. Recording never changes output bytes.
func WithStageTimings(t *DatasetTimings) Option {
	return optionFunc(func(c *compressConfig) error {
		if t == nil {
			return fmt.Errorf("crossfield: WithStageTimings: nil DatasetTimings")
		}
		c.timings = t
		return nil
	})
}

// ChunkOptions selects the chunked parallel engine when passed to Compress
// or CompressBaseline. The zero value means "chunked with defaults".
//
// Deprecated: use the functional options WithChunks and WithWorkers
// instead. ChunkOptions remains an Option so existing call sites keep
// compiling and old blobs keep decoding; it will not grow new fields.
type ChunkOptions struct {
	// ChunkVoxels is the target number of values per chunk (rounded to
	// whole slabs along the slowest axis); 0 picks a default of ~2M values.
	// Negative values are rejected with an error.
	ChunkVoxels int
	// Workers bounds how many chunks are compressed concurrently;
	// 0 means GOMAXPROCS. Negative values are rejected with an error.
	Workers int
}

// applyOption lets the deprecated struct participate in the functional
// option surface unchanged.
func (o ChunkOptions) applyOption(c *compressConfig) error {
	if o.ChunkVoxels < 0 {
		return fmt.Errorf("crossfield: ChunkOptions.ChunkVoxels must be >= 0 (0 = default), got %d", o.ChunkVoxels)
	}
	if o.Workers < 0 {
		return fmt.Errorf("crossfield: ChunkOptions.Workers must be >= 0 (0 = GOMAXPROCS), got %d", o.Workers)
	}
	c.chunked = true
	c.chunkVoxels = o.ChunkVoxels
	c.workers = o.Workers
	return nil
}

// resolveOptions folds the option list into a config. caller names the
// entry point for error messages; dataset selects whether per-field bounds
// are legal.
func resolveOptions(caller string, opts []Option, dataset bool) (*compressConfig, error) {
	c := &compressConfig{}
	for _, o := range opts {
		if o == nil {
			return nil, fmt.Errorf("crossfield: %s: nil Option", caller)
		}
		if err := o.applyOption(c); err != nil {
			return nil, err
		}
	}
	if !dataset && len(c.fieldBounds) > 0 {
		return nil, fmt.Errorf("crossfield: %s: WithFieldBound applies only to CompressDataset", caller)
	}
	if !dataset && c.timings != nil {
		return nil, fmt.Errorf("crossfield: %s: WithStageTimings applies only to CompressDataset", caller)
	}
	if c.chunked && c.chunkVoxels == 0 {
		c.chunkVoxels = chunk.DefaultChunkVoxels
	}
	return c, nil
}
