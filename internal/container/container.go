// Package container defines the self-describing compressed-blob format.
//
// Layout (all integers little-endian or varint):
//
//	magic "CFC1" | version byte | method byte | bound mode byte
//	float64 bound value | float64 absolute eb
//	uvarint rank | uvarint dims...
//	byte lossless backend id
//	uvarint numHybridParams | float64 weights... (weights then bias; 0 for baseline)
//	uvarint numAnchors | (uvarint len + name bytes)...
//	uvarint modelLen   | model blob (CFNN; 0 for baseline)
//	uvarint tableLen   | Huffman table
//	block section (version 2 payloads only):
//	  byte blockMode | uvarint edge per axis | uvarint numBlocks
//	  | uvarint segLen per block (raw Huffman bytes, block-raster order)
//	layer section (version 3 payloads only; replaces the two payload
//	uvarints below):
//	  byte numLayers | uvarint shift
//	  | per layer: byte bits | float64 maxErr | uvarint tableLen + table
//	    | uvarint rawLen | uvarint encLen | uint32 CRC32 of the encoded bytes
//	  | encoded layer payloads, concatenated in layer order
//	uvarint payloadRaw | uvarint payloadLen | lossless-compressed payload
//
// Version 1 payloads carry one sequential Huffman stream. Version 2
// payloads are block-coded for parallel decode: the raw (pre-lossless)
// payload is the concatenation of one byte-aligned Huffman segment per
// decode block, and the block section records the geometry and segment
// lengths so each block can be entropy-decoded independently. blockMode
// distinguishes wavefront coding (predictions cross block seams; blocks
// decode along anti-diagonal fronts) from block-independent coding
// (predictions reset at block borders; blocks decode in any order).
// Version 2 is frozen: decoded, no longer written, and Encode rejects a
// blob with a block section.
//
// Version 3 payloads are layered for progressive retrieval (see layers.go):
// the prequant integers split into a base layer at a relaxed bound plus
// refinement bit planes, each independently entropy-coded and CRC'd, so a
// reader holding any prefix of the layer payloads reconstructs the field
// within that layer's recorded bound. The blob-level Table section is the
// base layer's Huffman table; refinement layers carry their own tables in
// the layer section.
//
// Everything needed to decompress — except the decompressed anchor fields
// themselves — lives in the blob, and every byte of it (including the CFNN
// model) counts toward the compressed size, exactly as the paper charges
// model storage against the ratio.
package container

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
)

// Method identifies the prediction pipeline.
type Method byte

const (
	// MethodBaseline is SZ3-style Lorenzo + dual-quant (the paper's
	// baseline).
	MethodBaseline Method = 0
	// MethodHybrid is the paper's contribution: Lorenzo + CFNN cross-field
	// predictions fused by the hybrid model.
	MethodHybrid Method = 1
	// MethodCrossOnly uses only the cross-field predictions (the Figure 6
	// "cross-field" configuration).
	MethodCrossOnly Method = 2
)

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case MethodBaseline:
		return "baseline-lorenzo"
	case MethodHybrid:
		return "hybrid-crossfield"
	case MethodCrossOnly:
		return "cross-only"
	default:
		return fmt.Sprintf("Method(%d)", byte(m))
	}
}

var magic = [4]byte{'C', 'F', 'C', '1'}

// IsLayered reports whether data begins with a layered (version 3) CFC1
// header — a cheap sniff for callers deciding whether a payload supports
// progressive prefix decoding.
func IsLayered(data []byte) bool {
	return len(data) >= 5 && [4]byte(data[:4]) == magic && data[4] == versionLayered
}

const (
	// version is the classic sequential-payload layout.
	version = 1
	// versionBlocks adds the block section (see package comment). It is
	// decode-only: Encode never writes it.
	versionBlocks = 2
	// versionLayered replaces the single payload with the layer section:
	// a base layer plus refinement bit planes, each independently coded and
	// CRC'd, enabling prefix (progressive) decoding. See layers.go.
	versionLayered = 3
)

// Block coding modes stored in the block section's mode byte.
const (
	// BlockWavefront: residuals are the sequential (seam-crossing)
	// predictions reordered block-major; blocks decode along anti-diagonal
	// fronts, reading already-reconstructed seam planes of causal
	// neighbor blocks.
	BlockWavefront byte = 1
	// BlockIndependent: predictions reset at block borders, so every
	// block decodes with zero dependencies.
	BlockIndependent byte = 2
)

// maxDecodeBlocks bounds the block table a decoder will accept.
const maxDecodeBlocks = 1 << 22

// BlockSection describes the decode-block partitioning of a version-2
// (block-coded) payload.
type BlockSection struct {
	Mode    byte  // BlockWavefront or BlockIndependent
	Edges   []int // block edge per axis (len == rank)
	SegLens []int // raw Huffman segment bytes per block, block-raster order
}

// NumBlocks returns the block count implied by dims and the per-axis
// edges: the product of ceil(dim/edge).
func (s *BlockSection) NumBlocks(dims []int) (int, error) {
	if len(s.Edges) != len(dims) {
		return 0, fmt.Errorf("container: %d block edges for rank %d", len(s.Edges), len(dims))
	}
	n := 1
	for a, e := range s.Edges {
		if e <= 0 {
			return 0, fmt.Errorf("container: block edge %d", e)
		}
		n *= (dims[a] + e - 1) / e
	}
	return n, nil
}

// ErrCorrupt reports a malformed blob.
var ErrCorrupt = errors.New("container: corrupt blob")

// Header carries everything except the three byte sections.
type Header struct {
	Method     Method
	BoundMode  byte
	BoundValue float64
	AbsEB      float64
	Dims       []int
	BackendID  byte
	Hybrid     []float64 // weights then bias; empty for baseline
	Anchors    []string
}

// Blob is a parsed container.
type Blob struct {
	Header
	Model      []byte
	Table      []byte        // base-layer Huffman table for layered blobs
	Blocks     *BlockSection // nil for sequential (version 1) payloads
	PayloadRaw int           // uncompressed payload length
	Payload    []byte
	// Layers is non-nil for version-3 (layered) payloads; LayerData holds
	// the encoded bytes of each layer present in the input — strict Decode
	// requires all of them, DecodePrefix tolerates a truncated tail.
	Layers    *LayerSection
	LayerData [][]byte
	// layerOff is the byte offset of the first layer payload within the
	// encoded blob, recorded at decode time so LayerPrefixLen can report
	// how many blob bytes a prefix reader needs for a given level.
	layerOff int
}

// NumPoints returns the product of the dims.
func (h *Header) NumPoints() int {
	n := 1
	for _, d := range h.Dims {
		n *= d
	}
	return n
}

// Encode serializes a blob.
func Encode(b *Blob) ([]byte, error) {
	if len(b.Dims) < 1 || len(b.Dims) > 3 {
		return nil, fmt.Errorf("container: rank %d unsupported", len(b.Dims))
	}
	if b.Blocks != nil {
		return nil, fmt.Errorf("container: block-coded (version 2) payloads are decode-only")
	}
	ver := byte(version)
	if b.Layers != nil {
		ver = versionLayered
		if err := b.Layers.validate(len(b.LayerData)); err != nil {
			return nil, err
		}
		for l, d := range b.LayerData {
			if len(d) != b.Layers.Layers[l].EncLen {
				return nil, fmt.Errorf("container: layer %d data %d bytes, table says %d", l, len(d), b.Layers.Layers[l].EncLen)
			}
		}
	}
	out := make([]byte, 0, 64+len(b.Model)+len(b.Table)+len(b.Payload))
	out = append(out, magic[:]...)
	out = append(out, ver, byte(b.Method), b.BoundMode)
	var f8 [8]byte
	binary.LittleEndian.PutUint64(f8[:], math.Float64bits(b.BoundValue))
	out = append(out, f8[:]...)
	binary.LittleEndian.PutUint64(f8[:], math.Float64bits(b.AbsEB))
	out = append(out, f8[:]...)
	out = binary.AppendUvarint(out, uint64(len(b.Dims)))
	for _, d := range b.Dims {
		if d <= 0 {
			return nil, fmt.Errorf("container: non-positive dim %d", d)
		}
		out = binary.AppendUvarint(out, uint64(d))
	}
	out = append(out, b.BackendID)
	out = binary.AppendUvarint(out, uint64(len(b.Hybrid)))
	for _, w := range b.Hybrid {
		binary.LittleEndian.PutUint64(f8[:], math.Float64bits(w))
		out = append(out, f8[:]...)
	}
	out = binary.AppendUvarint(out, uint64(len(b.Anchors)))
	for _, a := range b.Anchors {
		out = binary.AppendUvarint(out, uint64(len(a)))
		out = append(out, a...)
	}
	out = binary.AppendUvarint(out, uint64(len(b.Model)))
	out = append(out, b.Model...)
	out = binary.AppendUvarint(out, uint64(len(b.Table)))
	out = append(out, b.Table...)
	if b.Layers != nil {
		out = appendLayerSection(out, b.Layers)
		for _, d := range b.LayerData {
			out = append(out, d...)
		}
		return out, nil
	}
	out = binary.AppendUvarint(out, uint64(b.PayloadRaw))
	out = binary.AppendUvarint(out, uint64(len(b.Payload)))
	out = append(out, b.Payload...)
	return out, nil
}

// Cursor is a bounds-checked byte cursor over untrusted input, shared by
// the repo's container decoders (CFC1 here, CFC2 in internal/chunk). Every
// read error wraps the corrupt sentinel supplied at construction, so each
// format reports its own corruption error.
type Cursor struct {
	data    []byte
	off     int
	corrupt error
}

// NewCursor returns a cursor over data whose errors wrap corrupt.
func NewCursor(data []byte, corrupt error) *Cursor {
	return &Cursor{data: data, corrupt: corrupt}
}

// Off returns the current offset.
func (c *Cursor) Off() int { return c.off }

// Len returns the total input length.
func (c *Cursor) Len() int { return len(c.data) }

// Uvarint reads one varint.
func (c *Cursor) Uvarint() (uint64, error) {
	v, n := binary.Uvarint(c.data[c.off:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: varint at offset %d", c.corrupt, c.off)
	}
	c.off += n
	return v, nil
}

// Bytes reads n bytes, referencing the input (not copying).
func (c *Cursor) Bytes(n int) ([]byte, error) {
	// n > len-off (not off+n > len) so a huge n cannot overflow the check.
	if n < 0 || n > len(c.data)-c.off {
		return nil, fmt.Errorf("%w: need %d bytes at offset %d of %d", c.corrupt, n, c.off, len(c.data))
	}
	b := c.data[c.off : c.off+n]
	c.off += n
	return b, nil
}

// Byte reads one byte.
func (c *Cursor) Byte() (byte, error) {
	b, err := c.Bytes(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

// Float64 reads one little-endian float64.
func (c *Cursor) Float64() (float64, error) {
	b, err := c.Bytes(8)
	if err != nil {
		return 0, err
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b)), nil
}

// Uint32 reads one little-endian uint32.
func (c *Cursor) Uint32() (uint32, error) {
	b, err := c.Bytes(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

// maxStreamSection bounds a single allocation while parsing an untrusted
// stream header (in-memory cursors are bounded by the input length).
const maxStreamSection = 1 << 30

// StreamCursor is the streaming counterpart of Cursor: the same
// bounds-checked field reads over an io.Reader, counting consumed bytes so
// decoders can recover absolute payload offsets. It is shared by the CFC2
// and CFC3 stream decoders.
type StreamCursor struct {
	src     *bufio.Reader
	off     int
	corrupt error
	fixed   [8]byte // fixed-width reads land here, not in a fresh slice
}

// NewStreamCursor returns a cursor over r whose errors wrap corrupt.
func NewStreamCursor(r io.Reader, corrupt error) *StreamCursor {
	return &StreamCursor{src: bufio.NewReader(r), corrupt: corrupt}
}

// Off returns the number of bytes consumed so far.
func (c *StreamCursor) Off() int { return c.off }

// Byte reads one byte.
func (c *StreamCursor) Byte() (byte, error) {
	b, err := c.src.ReadByte()
	if err != nil {
		return 0, fmt.Errorf("%w: byte at offset %d: %v", c.corrupt, c.off, err)
	}
	c.off++
	return b, nil
}

// Bytes reads n bytes into a fresh slice (see ReadN).
func (c *StreamCursor) Bytes(n int) ([]byte, error) {
	if n < 0 || n > maxStreamSection {
		return nil, fmt.Errorf("%w: section length %d at offset %d", c.corrupt, n, c.off)
	}
	b, err := ReadN(c.src, n)
	if err != nil {
		return nil, fmt.Errorf("%w: need %d bytes at offset %d: %v", c.corrupt, n, c.off, err)
	}
	c.off += n
	return b, nil
}

// ReadN reads exactly n >= 0 bytes from r into a fresh slice. The slice
// grows with the bytes that arrive, doubling from 64 KiB, so a declared
// length the source does not back never becomes an allocation, and a
// section of up to 64 KiB costs one allocation of its own size.
func ReadN(r io.Reader, n int) ([]byte, error) {
	b := make([]byte, min(n, 1<<16))
	for got := 0; ; {
		k, err := io.ReadFull(r, b[got:])
		if got += k; err != nil {
			return nil, err
		}
		if got == n {
			return b, nil
		}
		b = slices.Grow(b, min(n-got, got))[:got+min(n-got, got)]
	}
}

// Uvarint reads one varint.
func (c *StreamCursor) Uvarint() (uint64, error) {
	v, err := binary.ReadUvarint(countingByteReader{c})
	if err != nil {
		return 0, fmt.Errorf("%w: varint at offset %d: %v", c.corrupt, c.off, err)
	}
	return v, nil
}

// Float64 reads one little-endian float64.
func (c *StreamCursor) Float64() (float64, error) {
	b, err := c.fixedBytes(8)
	if err != nil {
		return 0, err
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b)), nil
}

// Uint32 reads one little-endian uint32.
func (c *StreamCursor) Uint32() (uint32, error) {
	b, err := c.fixedBytes(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

// fixedBytes reads n <= 8 bytes into the cursor's scratch array; the
// result is valid until the next fixed-width read.
func (c *StreamCursor) fixedBytes(n int) ([]byte, error) {
	b := c.fixed[:n]
	if _, err := io.ReadFull(c.src, b); err != nil {
		return nil, fmt.Errorf("%w: need %d bytes at offset %d: %v", c.corrupt, n, c.off, err)
	}
	c.off += n
	return b, nil
}

// countingByteReader lets binary.ReadUvarint advance the stream offset.
type countingByteReader struct{ c *StreamCursor }

func (r countingByteReader) ReadByte() (byte, error) {
	b, err := r.c.src.ReadByte()
	if err == nil {
		r.c.off++
	}
	return b, err
}

// CheckVolume validates that the product of dims — and its ×4 float32 byte
// size — stays in int range, returning the volume. Decoders must call it
// on untrusted dims before sizing any allocation from them.
func CheckVolume(dims []int) (int, error) {
	n := 1
	for _, d := range dims {
		if d <= 0 || d > math.MaxInt/4/n {
			return 0, fmt.Errorf("dims %v volume overflows", dims)
		}
		n *= d
	}
	return n, nil
}

// Decode parses a blob (sections reference the input slice; callers must
// not mutate it).
func Decode(data []byte) (*Blob, error) {
	b, _, err := decodeBlob(data, false)
	return b, err
}

// DecodePrefix parses a possibly-truncated layered blob: the header and
// layer table must be complete, but the layer payloads may be cut anywhere
// — every fully-present layer is returned, and the count of complete
// layers comes back as avail. A partial trailing layer is ignored. At
// least the base layer must be present. Non-layered blobs must be complete
// and report avail == 1.
func DecodePrefix(data []byte) (*Blob, int, error) {
	return decodeBlob(data, true)
}

// decodeBlob is the shared parse behind Decode (strict: every section
// present, no trailing bytes) and DecodePrefix (tolerant of a truncated
// layer-payload tail). avail counts the complete layers of a layered blob,
// and is 1 for non-layered blobs.
func decodeBlob(data []byte, prefix bool) (*Blob, int, error) {
	r := NewCursor(data, ErrCorrupt)
	m, err := r.Bytes(4)
	if err != nil {
		return nil, 0, err
	}
	if [4]byte(m) != magic {
		return nil, 0, fmt.Errorf("%w: bad magic %q", ErrCorrupt, m)
	}
	ver, err := r.Byte()
	if err != nil {
		return nil, 0, err
	}
	if ver != version && ver != versionBlocks && ver != versionLayered {
		return nil, 0, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, ver)
	}
	b := &Blob{}
	mb, err := r.Byte()
	if err != nil {
		return nil, 0, err
	}
	b.Method = Method(mb)
	if b.BoundMode, err = r.Byte(); err != nil {
		return nil, 0, err
	}
	if b.BoundValue, err = r.Float64(); err != nil {
		return nil, 0, err
	}
	if b.AbsEB, err = r.Float64(); err != nil {
		return nil, 0, err
	}
	rank, err := r.Uvarint()
	if err != nil {
		return nil, 0, err
	}
	if rank < 1 || rank > 3 {
		return nil, 0, fmt.Errorf("%w: rank %d", ErrCorrupt, rank)
	}
	b.Dims = make([]int, rank)
	for i := range b.Dims {
		d, err := r.Uvarint()
		if err != nil {
			return nil, 0, err
		}
		if d == 0 || d > 1<<32 {
			return nil, 0, fmt.Errorf("%w: dim %d", ErrCorrupt, d)
		}
		b.Dims[i] = int(d)
	}
	if _, err := CheckVolume(b.Dims); err != nil {
		return nil, 0, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if b.BackendID, err = r.Byte(); err != nil {
		return nil, 0, err
	}
	nh, err := r.Uvarint()
	if err != nil {
		return nil, 0, err
	}
	if nh > 64 {
		return nil, 0, fmt.Errorf("%w: %d hybrid params", ErrCorrupt, nh)
	}
	b.Hybrid = make([]float64, nh)
	for i := range b.Hybrid {
		if b.Hybrid[i], err = r.Float64(); err != nil {
			return nil, 0, err
		}
	}
	na, err := r.Uvarint()
	if err != nil {
		return nil, 0, err
	}
	if na > 256 {
		return nil, 0, fmt.Errorf("%w: %d anchors", ErrCorrupt, na)
	}
	b.Anchors = make([]string, na)
	for i := range b.Anchors {
		l, err := r.Uvarint()
		if err != nil {
			return nil, 0, err
		}
		if l > 4096 {
			return nil, 0, fmt.Errorf("%w: anchor name length %d", ErrCorrupt, l)
		}
		nb, err := r.Bytes(int(l))
		if err != nil {
			return nil, 0, err
		}
		b.Anchors[i] = string(nb)
	}
	ml, err := r.Uvarint()
	if err != nil {
		return nil, 0, err
	}
	if b.Model, err = r.Bytes(int(ml)); err != nil {
		return nil, 0, err
	}
	tl, err := r.Uvarint()
	if err != nil {
		return nil, 0, err
	}
	if b.Table, err = r.Bytes(int(tl)); err != nil {
		return nil, 0, err
	}
	if ver == versionBlocks {
		if b.Blocks, err = decodeBlockSection(r, b.Dims); err != nil {
			return nil, 0, err
		}
	}
	if ver == versionLayered {
		avail, err := decodeLayered(r, b, prefix)
		if err != nil {
			return nil, 0, err
		}
		return b, avail, nil
	}
	praw, err := r.Uvarint()
	if err != nil {
		return nil, 0, err
	}
	b.PayloadRaw = int(praw)
	if b.Blocks != nil {
		sum := 0
		for _, l := range b.Blocks.SegLens {
			sum += l
		}
		if sum != b.PayloadRaw {
			return nil, 0, fmt.Errorf("%w: block segments sum to %d bytes, payload is %d", ErrCorrupt, sum, b.PayloadRaw)
		}
	}
	pl, err := r.Uvarint()
	if err != nil {
		return nil, 0, err
	}
	if b.Payload, err = r.Bytes(int(pl)); err != nil {
		return nil, 0, err
	}
	if r.Off() != len(data) {
		return nil, 0, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(data)-r.Off())
	}
	return b, 1, nil
}

// decodeBlockSection parses and validates the block table of a version-2
// payload. Geometry is cross-checked against dims: the recorded segment
// count must equal the block count the edges imply.
func decodeBlockSection(r *Cursor, dims []int) (*BlockSection, error) {
	s := &BlockSection{}
	mode, err := r.Byte()
	if err != nil {
		return nil, err
	}
	if mode != BlockWavefront && mode != BlockIndependent {
		return nil, fmt.Errorf("%w: block mode %d", ErrCorrupt, mode)
	}
	s.Mode = mode
	s.Edges = make([]int, len(dims))
	for a := range s.Edges {
		e, err := r.Uvarint()
		if err != nil {
			return nil, err
		}
		if e == 0 || e > 1<<32 {
			return nil, fmt.Errorf("%w: block edge %d", ErrCorrupt, e)
		}
		s.Edges[a] = int(e)
	}
	want, err := s.NumBlocks(dims)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	nb, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	if nb > maxDecodeBlocks || int(nb) != want {
		return nil, fmt.Errorf("%w: %d block segments, geometry implies %d", ErrCorrupt, nb, want)
	}
	// Every segment length takes at least one uvarint byte, so a count
	// the remaining input cannot hold fails before it is allocated.
	if nb > uint64(r.Len()-r.Off()) {
		return nil, fmt.Errorf("%w: %d block segments in %d bytes", ErrCorrupt, nb, r.Len()-r.Off())
	}
	s.SegLens = make([]int, nb)
	for i := range s.SegLens {
		l, err := r.Uvarint()
		if err != nil {
			return nil, err
		}
		if l > math.MaxInt32 {
			return nil, fmt.Errorf("%w: block segment length %d", ErrCorrupt, l)
		}
		s.SegLens[i] = int(l)
	}
	return s, nil
}
