// Progressive (layered) decompression: decode any prefix of a CFC1 v3 /
// CFC2 v4 container at a chosen level, reading only the bytes that level
// needs. Levels count from 0 (base) to Levels-1 (full); LevelFull selects
// the deepest level. Layer payloads verify their own CRCs, so a truncated
// or partially-corrupt container still serves every intact lower level.
package core

import (
	"bytes"
	"context"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"repro/internal/bitstream"
	"repro/internal/chunk"
	"repro/internal/container"
	"repro/internal/huffman"
	"repro/internal/lossless"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// LevelFull selects the deepest (bit-exact) level in the *AtLevel APIs.
const LevelFull = -1

// ErrLayerChecksum re-exports the container-level per-layer CRC failure so
// serving layers can map it to a distinct status without importing the
// container package.
var ErrLayerChecksum = container.ErrLayerChecksum

// LevelSpec describes the progressive layering of a compressed payload.
// Non-progressive payloads report Levels == 1.
type LevelSpec struct {
	Levels int   // decodable levels including the base; 1 when not layered
	Shift  int   // total refinement bits dropped from the base layer
	Bits   []int // refinement-plane widths, most-significant first
}

// Progressive reports whether the payload carries more than one level.
func (s *LevelSpec) Progressive() bool { return s != nil && s.Levels > 1 }

// Remaining returns the refinement bits still unknown after level.
func (s *LevelSpec) Remaining(level int) int {
	r := s.Shift
	for l := 0; l < level && l < len(s.Bits); l++ {
		r -= s.Bits[l]
	}
	return r
}

// Bound returns the provable absolute error bound of a level given the
// payload's full absolute bound: eb·(1 + 2^remaining), eb at the deepest
// level.
func (s *LevelSpec) Bound(level int, absEB float64) float64 {
	if level >= s.Levels-1 {
		return absEB
	}
	r := s.Remaining(level)
	if r <= 0 {
		return absEB
	}
	return absEB * (1 + float64(int64(1)<<r))
}

// ResolveLevel returns the cheapest level whose provable bound meets the
// requested absolute bound, falling back to the deepest level when the
// request is tighter than every preview (including tighter than the full
// bound — the deepest level is simply the best the payload can do).
func (s *LevelSpec) ResolveLevel(reqEB, absEB float64) int {
	for l := 0; l < s.Levels-1; l++ {
		if s.Bound(l, absEB) <= reqEB {
			return l
		}
	}
	return s.Levels - 1
}

// specFromSection converts a parsed layer table into a LevelSpec.
func specFromSection(ls *container.LayerSection) *LevelSpec {
	s := &LevelSpec{Levels: ls.NumLevels(), Shift: ls.Shift}
	for _, ly := range ls.Layers[1:] {
		s.Bits = append(s.Bits, ly.Bits)
	}
	return s
}

// decodePlanes entropy-decodes refinement planes 1..level of a layered
// payload on at most workers goroutines (the planes are independent byte
// streams), returning each plane's symbols and the bit position it
// re-attaches at below the base.
func decodePlanes(b *container.Blob, backend lossless.Backend, level, workers int) ([][]int32, []int, error) {
	ls := b.Layers
	n := b.NumPoints()
	planes := make([][]int32, level)
	shifts := make([]int, level)
	err := parallel.ForErr(workers, level, func(pi int) error {
		l := pi + 1
		shifts[pi] = ls.Remaining(l)
		enc, err := b.LayerPayload(l)
		if err != nil {
			return err
		}
		raw, err := inflate(backend, enc, ls.Layers[l].RawLen, n)
		if err != nil {
			return err
		}
		pc, _, err := huffman.UnmarshalCodec(ls.Layers[l].Table)
		if err != nil {
			return err
		}
		syms, err := pc.Decode(bitstream.NewReader(raw), n)
		if err != nil {
			return err
		}
		max := int32(1) << ls.Layers[l].Bits
		for _, s := range syms {
			if s < 0 || s >= max {
				return fmt.Errorf("%w: layer %d symbol %d exceeds %d-bit plane", container.ErrCorrupt, l, s, ls.Layers[l].Bits)
			}
		}
		planes[pi] = syms
		return nil
	})
	return planes, shifts, err
}

// DecompressAtLevel reconstructs a field from a compressed blob at the
// given level (LevelFull = bit-exact), returning the reconstruction and
// the achieved max error the compressor recorded for that level (NaN when
// the payload is not layered). Chunked (CFC2) containers decode
// chunk-parallel; hybrid payloads need the same decompressed anchors as
// Decompress. The decode stops at its next chunk, block or front
// boundary once ctx is done and returns ctx.Err().
func DecompressAtLevel(ctx context.Context, blob []byte, anchors []*tensor.Tensor, level int) (*tensor.Tensor, float64, error) {
	return decompressBlob(ctx, blob, anchors, level, 0)
}

// maxAchieved folds per-chunk achieved errors; any NaN (unknown) makes the
// aggregate NaN.
func maxAchieved(errs []float64) float64 {
	out := 0.0
	for _, e := range errs {
		if math.IsNaN(e) {
			return math.NaN()
		}
		if e > out {
			out = e
		}
	}
	return out
}

// DecompressChunkAtLevel reconstructs only chunk i of a container at the
// given level, returning the chunk tensor, its starting slab along axis 0,
// and the recorded achieved max error for that level. Hybrid containers
// need the full-field decompressed anchors, exactly as DecompressChunk.
func DecompressChunkAtLevel(blob []byte, i, level int, anchors []*tensor.Tensor) (*tensor.Tensor, int, float64, error) {
	return decompressChunk(context.Background(), blob, i, level, anchors, true, 0)
}

// DecompressChunkAtLevelWithAnchorSlabsCtx is the serving layer's chunk
// decode: anchor data covers only chunk i's slab range — each slab tensor
// has the chunk's dims (the field dims with axis 0 cut to the chunk's slab
// count) — and the payload reconstructs at the requested level. A
// dependent-chunk request thus decodes only the anchor chunks
// intersecting its slab range, never whole anchor fields; predictions are
// bit-identical to DecompressChunkAtLevel with full anchors. The decode
// gets a GOMAXPROCS-wide pool and checks ctx at every block and
// wavefront-front boundary, so a canceled request releases its workers
// at the next barrier.
func DecompressChunkAtLevelWithAnchorSlabsCtx(ctx context.Context, blob []byte, i, level int, anchorSlabs []*tensor.Tensor) (*tensor.Tensor, int, float64, error) {
	return decompressChunk(ctx, blob, i, level, anchorSlabs, false, 0)
}

// PayloadLevelSpec reports the progressive layering of an in-memory
// compressed blob (CFC1 or CFC2). Non-layered payloads report Levels == 1.
func PayloadLevelSpec(blob []byte) (*LevelSpec, error) {
	return PayloadLevelSpecReader(bytes.NewReader(blob), int64(len(blob)))
}

// PayloadLevelSpecReader is PayloadLevelSpec over an io.ReaderAt: only the
// container index and the first chunk's layer table are read, never a full
// payload — the mount-time introspection path for file-backed archives.
func PayloadLevelSpecReader(r io.ReaderAt, size int64) (*LevelSpec, error) {
	var head [5]byte
	if size < int64(len(head)) {
		return nil, fmt.Errorf("%w: %d-byte payload", container.ErrCorrupt, size)
	}
	if _, err := r.ReadAt(head[:], 0); err != nil {
		return nil, err
	}
	if chunk.IsChunked(head[:4]) {
		cr, err := chunk.NewReader(io.NewSectionReader(r, 0, size))
		if err != nil {
			return nil, err
		}
		if !cr.Header().Layered {
			return &LevelSpec{Levels: 1}, nil
		}
		idx := cr.Index()
		if len(idx) == 0 {
			return nil, fmt.Errorf("%w: empty chunk index", chunk.ErrCorrupt)
		}
		return cfc1LevelSpec(r, int64(idx[0].Offset), int64(idx[0].PayloadLen))
	}
	return cfc1LevelSpec(r, 0, size)
}

// cfc1LevelSpec parses the layer table of one CFC1 payload at [off,
// off+length) of r, reading a geometrically-growing prefix until the
// header and base layer parse (any usable prefix must contain them
// anyway).
func cfc1LevelSpec(r io.ReaderAt, off, length int64) (*LevelSpec, error) {
	var head [5]byte
	if length < int64(len(head)) {
		return nil, fmt.Errorf("%w: %d-byte payload", container.ErrCorrupt, length)
	}
	if _, err := r.ReadAt(head[:], off); err != nil {
		return nil, err
	}
	if !container.IsLayered(head[:]) {
		return &LevelSpec{Levels: 1}, nil
	}
	b, _, err := readLayeredPrefix(r, off, length, 0)
	if err != nil {
		return nil, err
	}
	return specFromSection(b.Layers), nil
}

// readLayeredPrefix reads the smallest practical prefix of the payload at
// [off, off+length) of r that parses with at least level+1 complete
// layers, growing geometrically. The returned blob references the prefix
// bytes read.
func readLayeredPrefix(r io.ReaderAt, off, length int64, level int) (*container.Blob, []byte, error) {
	sz := int64(1 << 16)
	for {
		if sz > length {
			sz = length
		}
		buf := make([]byte, sz)
		n, err := io.ReadFull(io.NewSectionReader(r, off, sz), buf)
		atEnd := sz == length
		if err == io.ErrUnexpectedEOF || err == io.EOF {
			// The source itself is shorter than the recorded payload length
			// (e.g. a truncated file): whatever arrived is all there is.
			buf = buf[:n]
			atEnd = true
		} else if err != nil {
			return nil, nil, err
		}
		b, avail, err := container.DecodePrefix(buf)
		if err == nil && avail > level {
			return b, buf, nil
		}
		if atEnd {
			if err == nil {
				return nil, nil, fmt.Errorf("%w: level %d needs %d layers, payload holds %d",
					container.ErrCorrupt, level, level+1, avail)
			}
			return nil, nil, err
		}
		// Parse one growth step ahead when the table is already known:
		// jump straight to the exact prefix the level needs.
		if err == nil && b.Layers != nil {
			if want := int64(b.LayerPrefixLen(level)); want > sz {
				sz = want
				continue
			}
		}
		sz *= 4
	}
}

// DecompressAtLevelReader reconstructs a field at a level from a
// ReaderAt-backed payload, reading only the byte prefix that level needs:
// the container header/index plus layers 0..level of each chunk. This is
// the bounded-memory path behind Archive.DecodeFieldAtLevel. Layer CRCs
// cover the prefixes read; a chunk read whole (LevelFull, or a
// non-layered chunk) is verified against its index checksum. A CFC1
// payload carries no whole-payload checksum of its own, so callers
// holding one (an archive manifest) should decode whole reads in memory.
func DecompressAtLevelReader(r io.ReaderAt, size int64, anchors []*tensor.Tensor, level, workers int) (*tensor.Tensor, float64, error) {
	var head [4]byte
	if size >= 4 {
		if _, err := r.ReadAt(head[:], 0); err != nil {
			return nil, 0, err
		}
	}
	if !chunk.IsChunked(head[:]) {
		b, err := readPayload(r, 0, size, level, nil)
		if err != nil {
			return nil, 0, err
		}
		return decodePayload(context.Background(), b, level, anchors, nil, nil, workers)
	}
	cr, err := chunk.NewReader(io.NewSectionReader(r, 0, size))
	if err != nil {
		return nil, 0, err
	}
	a := &chunk.Archive{Header: *cr.Header(), Index: cr.Index()}
	return decodeChunks(context.Background(), a, anchors, level, workers, func(i int) (*container.Blob, error) {
		e := a.Index[i]
		b, err := readPayload(r, int64(e.Offset), int64(e.PayloadLen), level, &e.Checksum)
		if err != nil {
			return nil, fmt.Errorf("core: chunk %d: %w", i, err)
		}
		return b, nil
	})
}

// readPayload reads the CFC1 payload at [off, off+length) of r for a
// decode at level. A preview of a layered payload reads only the prefix
// the level needs, which the per-layer CRCs cover. Every other decode
// reads the whole payload, verifies it against crc when the caller has
// one (a CFC2 index checksum), and parses it as strictly as an in-memory
// payload.
func readPayload(r io.ReaderAt, off, length int64, level int, crc *uint32) (*container.Blob, error) {
	var head [5]byte
	if length < int64(len(head)) {
		return nil, fmt.Errorf("%w: %d-byte payload", container.ErrCorrupt, length)
	}
	if _, err := r.ReadAt(head[:], off); err != nil {
		return nil, err
	}
	if level != LevelFull && container.IsLayered(head[:]) {
		b, _, err := readLayeredPrefix(r, off, length, level)
		return b, err
	}
	// Sized by the bytes that arrive, not by the index's claim.
	buf, err := io.ReadAll(io.NewSectionReader(r, off, length))
	if err != nil {
		return nil, err
	}
	if int64(len(buf)) != length {
		return nil, io.ErrUnexpectedEOF
	}
	if crc != nil && crc32.ChecksumIEEE(buf) != *crc {
		return nil, chunk.ErrChecksum
	}
	return parsePayload(buf, level)
}

// PayloadLevelBytes reports, per level, how many compressed payload bytes
// a prefix reader must fetch to reconstruct levels 0..l: the container
// header and layer table plus the first l+1 layer payloads, summed over
// every chunk for CFC2 payloads (chunk header and index included, since a
// reader needs them to locate the per-chunk prefixes). Non-layered
// payloads report a single entry of len(blob). The last entry always
// equals len(blob): the full prefix is the whole payload.
func PayloadLevelBytes(blob []byte) ([]int64, error) {
	if chunk.IsChunked(blob) {
		a, err := chunk.Decode(blob)
		if err != nil {
			return nil, err
		}
		spec, err := PayloadLevelSpec(blob)
		if err != nil {
			return nil, err
		}
		out := make([]int64, spec.Levels)
		for l := range out {
			out[l] = int64(len(blob))
		}
		if !spec.Progressive() {
			return out, nil
		}
		for i := 0; i < a.NumChunks(); i++ {
			p, err := a.Payload(i)
			if err != nil {
				return nil, err
			}
			b, err := container.Decode(p)
			if err != nil {
				return nil, fmt.Errorf("core: chunk %d: %w", i, err)
			}
			if b.Layers == nil {
				continue // constant or tiny chunk stored whole at every level
			}
			for l := range out {
				lv := l
				if n := b.Layers.NumLevels(); lv >= n {
					lv = n - 1
				}
				out[l] -= int64(len(p) - b.LayerPrefixLen(lv))
			}
		}
		return out, nil
	}
	b, err := container.Decode(blob)
	if err != nil {
		return nil, err
	}
	if b.Layers == nil {
		return []int64{int64(len(blob))}, nil
	}
	out := make([]int64, b.Layers.NumLevels())
	for l := range out {
		out[l] = int64(b.LayerPrefixLen(l))
	}
	return out, nil
}
