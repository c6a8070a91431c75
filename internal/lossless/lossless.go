// Package lossless provides the final lossless stage of the compression
// pipeline. SZ3 uses Zstd here; this reproduction uses the stdlib DEFLATE
// (compress/flate), which is the same LZ77+Huffman family — absolute ratios
// shift by a constant factor, relative comparisons between predictors are
// unaffected. A pass-through "store" backend exists for measurement and
// tests.
package lossless

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"sync"
)

// Backend is a reversible byte-stream compressor.
type Backend interface {
	// ID is the stable on-disk identifier stored in the container header.
	ID() byte
	// Name is the human-readable backend name.
	Name() string
	// Compress returns the compressed form of src.
	Compress(src []byte) ([]byte, error)
	// Decompress expands src; expectedLen is a sizing hint and integrity
	// check (pass <0 to skip the check).
	Decompress(src []byte, expectedLen int) ([]byte, error)
}

// Backend IDs (on-disk format; never renumber).
const (
	IDStore byte = 0
	IDFlate byte = 1
)

// Store is the identity backend.
type Store struct{}

// ID implements Backend.
func (Store) ID() byte { return IDStore }

// Name implements Backend.
func (Store) Name() string { return "store" }

// Compress implements Backend.
func (Store) Compress(src []byte) ([]byte, error) {
	return append([]byte(nil), src...), nil
}

// Decompress implements Backend.
func (Store) Decompress(src []byte, expectedLen int) ([]byte, error) {
	if expectedLen >= 0 && len(src) != expectedLen {
		return nil, fmt.Errorf("lossless: store length %d != expected %d", len(src), expectedLen)
	}
	return append([]byte(nil), src...), nil
}

// Flate is a DEFLATE backend.
type Flate struct {
	// Level is a flate compression level (flate.BestSpeed..BestCompression);
	// 0 means flate.DefaultCompression.
	Level int
}

// ID implements Backend.
func (Flate) ID() byte { return IDFlate }

// Name implements Backend.
func (f Flate) Name() string { return fmt.Sprintf("flate(level=%d)", f.level()) }

func (f Flate) level() int {
	if f.Level == 0 {
		return flate.DefaultCompression
	}
	return f.Level
}

// flateWriters pools DEFLATE encoders per compression level (indexed
// level−flate.HuffmanOnly). A flate.Writer carries ~1 MB of internal match
// state whose initialization used to dominate small per-chunk payloads;
// Reset makes a pooled writer equivalent to a fresh one, so pooling
// changes no output bytes.
var flateWriters [flate.BestCompression - flate.HuffmanOnly + 1]sync.Pool

// flateReaders pools DEFLATE decoders (flate.Reader implements
// flate.Resetter).
var flateReaders sync.Pool

// Compress implements Backend.
func (f Flate) Compress(src []byte) ([]byte, error) {
	level := f.level()
	if level < flate.HuffmanOnly || level > flate.BestCompression {
		_, err := flate.NewWriter(io.Discard, level) // surface flate's own error
		return nil, fmt.Errorf("lossless: %w", err)
	}
	pool := &flateWriters[level-flate.HuffmanOnly]
	var buf bytes.Buffer
	w, _ := pool.Get().(*flate.Writer)
	if w == nil {
		var err error
		if w, err = flate.NewWriter(&buf, level); err != nil {
			return nil, fmt.Errorf("lossless: %w", err)
		}
	} else {
		w.Reset(&buf)
	}
	if _, err := w.Write(src); err != nil {
		return nil, fmt.Errorf("lossless: %w", err)
	}
	if err := w.Close(); err != nil {
		return nil, fmt.Errorf("lossless: %w", err)
	}
	// Detach the writer from the output buffer before pooling it, so a
	// parked writer never pins the returned blob's backing array.
	w.Reset(io.Discard)
	pool.Put(w)
	return buf.Bytes(), nil
}

// MaxRatio bounds how far any backend's stream can expand: a DEFLATE
// 258-byte match costs at least two bits, so no stream inflates more than
// 1032:1 (the store backend does not expand at all).
const MaxRatio = 1032

// Decompress implements Backend. expectedLen comes from a header that may
// lie, so neither it nor the stream decides the allocation alone: the
// output is presized only as far as src can inflate, and reading stops
// one byte past expectedLen.
func (Flate) Decompress(src []byte, expectedLen int) ([]byte, error) {
	r, _ := flateReaders.Get().(io.ReadCloser)
	if r == nil {
		r = flate.NewReader(bytes.NewReader(src))
	} else if err := r.(flate.Resetter).Reset(bytes.NewReader(src), nil); err != nil {
		return nil, fmt.Errorf("lossless: %w", err)
	}
	defer func() {
		if r.Close() != nil {
			return
		}
		// Detach the decoder from src before pooling it, mirroring the
		// writer path: a parked reader must not pin the compressed blob.
		if r.(flate.Resetter).Reset(bytes.NewReader(nil), nil) == nil {
			flateReaders.Put(r)
		}
	}()
	var out bytes.Buffer
	in := io.Reader(r)
	if expectedLen >= 0 {
		out.Grow(min(expectedLen, MaxRatio*len(src)))
		in = io.LimitReader(r, int64(expectedLen)+1)
	}
	if _, err := io.Copy(&out, in); err != nil {
		return nil, fmt.Errorf("lossless: %w", err)
	}
	if expectedLen >= 0 && out.Len() > expectedLen {
		return nil, fmt.Errorf("lossless: stream inflates past the expected %d bytes", expectedLen)
	}
	if expectedLen >= 0 && out.Len() != expectedLen {
		return nil, fmt.Errorf("lossless: decompressed length %d != expected %d", out.Len(), expectedLen)
	}
	return out.Bytes(), nil
}

// ByID returns the backend for an on-disk identifier.
func ByID(id byte) (Backend, error) {
	switch id {
	case IDStore:
		return Store{}, nil
	case IDFlate:
		return Flate{}, nil
	default:
		return nil, fmt.Errorf("lossless: unknown backend id %d", id)
	}
}

// Default is the pipeline's standard backend.
func Default() Backend { return Flate{} }
