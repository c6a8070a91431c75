// Progressive (layered) decompression: decode any prefix of a CFC1 v3 /
// CFC2 v4 container at a chosen level, reading only the bytes that level
// needs. Levels count from 0 (base) to Levels-1 (full); LevelFull selects
// the deepest level. Layer payloads verify their own CRCs, so a truncated
// or partially-corrupt container still serves every intact lower level.
package core

import (
	"bytes"
	"fmt"
	"io"
	"math"

	"repro/internal/bitstream"
	"repro/internal/chunk"
	"repro/internal/container"
	"repro/internal/huffman"
	"repro/internal/lossless"
	"repro/internal/parallel"
)

// LevelFull selects the deepest (bit-exact) level in a Request.
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

// PayloadLevelSpecReader reports the progressive layering of the
// size-byte payload (CFC1 or CFC2) at the start of r; non-layered
// payloads report Levels == 1. Only the container index and the first
// chunk's layer table are read, never a full payload — the mount-time
// introspection path for file-backed archives.
func PayloadLevelSpecReader(r io.ReaderAt, size int64) (*LevelSpec, error) {
	var head [5]byte
	if size < int64(len(head)) {
		return nil, fmt.Errorf("%w: %d-byte payload", container.ErrCorrupt, size)
	}
	if _, err := r.ReadAt(head[:], 0); err != nil {
		return nil, err
	}
	if chunk.IsChunked(head[:4]) {
		cr, err := chunk.NewReader(r, size)
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
		spec, err := PayloadLevelSpecReader(bytes.NewReader(blob), int64(len(blob)))
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
