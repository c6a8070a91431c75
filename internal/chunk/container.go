// CFC2 container format.
//
// Layout (integers little-endian or uvarint):
//
//	magic "CFC2" | version byte | method byte | bound mode byte
//	float64 bound value | float64 absolute eb (resolved over the full field)
//	uvarint rank | uvarint dims...
//	uvarint numAnchors | (uvarint len + name bytes)...
//	uvarint modelLen | model blob (CFNN, stored once; 0 for baseline)
//	uvarint numChunks
//	index: per chunk — uvarint slabCount | uvarint payloadLen | uint32 CRC32
//	       | float64 achieved max error (version >= 2)
//	per-chunk payloads, concatenated in chunk order
//
// Version 2 extends each index entry with the chunk's achieved maximum
// absolute reconstruction error, measured at compression time, so tools can
// report actual vs bound without decompressing. Version 1 containers are
// still decoded; their per-chunk errors read back as NaN ("unknown").
// Version 3 reuses the version-2 layout byte for byte but marks that chunk
// payloads may be block-coded (CFC1 version-2 payloads carrying a block
// table for parallel decode — see internal/container). It is frozen:
// decoded, no longer written. Version 4 (again layout-identical) marks
// layered chunk payloads (CFC1 version 3) for progressive
// multi-resolution prefix decode. Encode writes version 2 or 4.
//
// Each payload is a self-contained single-chunk CFC1 blob with its model
// section stripped (the model lives once in this header), so a chunk can
// be decoded knowing only the shared header and its own payload bytes —
// the basis for random access. Chunk byte
// offsets are not stored: they are the running sum of the payload lengths,
// recomputed into IndexEntry.Offset at decode time.
package chunk

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"repro/internal/container"
)

var magic = [4]byte{'C', 'F', 'C', '2'}

const (
	// versionV1 lacks per-chunk achieved errors; still accepted on decode.
	versionV1 = 1
	// versionV2 adds the achieved max error to each index entry; what
	// Encode writes for sequential-payload containers.
	versionV2 = 2
	// Version 3 has the identical header and index layout as v2 but
	// permits block-coded chunk payloads (CFC1 version-2 payloads, see
	// internal/container); still accepted on decode, no longer written.

	// versionV4, again layout-identical, marks layered (progressive) chunk
	// payloads: CFC1 version-3 payloads carrying a layer table for
	// multi-resolution prefix decode (see internal/container).
	versionV4 = 4
)

// maxChunks bounds the index size a decoder will accept.
const maxChunks = 1 << 20

// ErrCorrupt reports a malformed CFC2 container.
var ErrCorrupt = errors.New("chunk: corrupt container")

// ErrChecksum reports a chunk payload whose CRC32 does not match its index
// entry.
var ErrChecksum = errors.New("chunk: payload checksum mismatch")

// IsChunked reports whether data begins with the CFC2 magic.
func IsChunked(data []byte) bool {
	return len(data) >= 4 && [4]byte(data[:4]) == magic
}

// Header carries everything shared across chunks.
type Header struct {
	Method     container.Method
	BoundMode  byte
	BoundValue float64
	AbsEB      float64
	Dims       []int
	Anchors    []string
	Model      []byte // CFNN weights, stored once; empty for baseline
	// Layered marks a container whose chunk payloads are layered (CFC1
	// version 3) for progressive multi-resolution retrieval; it selects
	// the version-4 header byte.
	Layered bool
}

// NumPoints returns the product of the dims.
func (h *Header) NumPoints() int {
	n := 1
	for _, d := range h.Dims {
		n *= d
	}
	return n
}

// IndexEntry describes one chunk in the container.
type IndexEntry struct {
	Start      int     // first slab along axis 0
	Count      int     // slab count along axis 0
	Offset     int     // payload byte offset within the container
	RawBytes   int     // uncompressed chunk size (voxels × 4)
	PayloadLen int     // compressed payload length in bytes
	Checksum   uint32  // CRC32 (IEEE) of the payload
	MaxErr     float64 // achieved max abs error; NaN when unknown (v1)
}

// Archive is a parsed in-memory CFC2 container with random-access payloads.
type Archive struct {
	Header
	Index []IndexEntry

	data []byte // the full original blob; payloads reference it
}

// NumChunks returns the number of chunks.
func (a *Archive) NumChunks() int { return len(a.Index) }

// Grid reconstructs the slab partitioning recorded in the index.
func (a *Archive) Grid() (*Grid, error) {
	counts := make([]int, len(a.Index))
	for i, e := range a.Index {
		counts[i] = e.Count
	}
	return FromCounts(a.Dims, counts)
}

// Payload returns chunk i's payload bytes after verifying its checksum.
// Only the requested chunk's bytes are touched.
func (a *Archive) Payload(i int) ([]byte, error) {
	if i < 0 || i >= len(a.Index) {
		return nil, fmt.Errorf("chunk: payload index %d out of [0,%d)", i, len(a.Index))
	}
	e := a.Index[i]
	p := a.data[e.Offset : e.Offset+e.PayloadLen]
	if crc32.ChecksumIEEE(p) != e.Checksum {
		return nil, fmt.Errorf("%w: chunk %d", ErrChecksum, i)
	}
	return p, nil
}

// appendHeader serializes the header, index, and payload lengths (not the
// payloads themselves). maxErrs carries the per-chunk achieved maximum
// absolute errors; nil writes NaN ("unknown") for every chunk.
func appendHeader(out []byte, h *Header, g *Grid, payloads [][]byte, maxErrs []float64) ([]byte, error) {
	if len(h.Dims) < 1 || len(h.Dims) > 3 {
		return nil, fmt.Errorf("chunk: rank %d unsupported", len(h.Dims))
	}
	if !sameDims(h.Dims, g.Dims()) {
		return nil, fmt.Errorf("chunk: header dims %v != grid dims %v", h.Dims, g.Dims())
	}
	if len(payloads) != g.NumChunks() {
		return nil, fmt.Errorf("chunk: %d payloads for %d chunks", len(payloads), g.NumChunks())
	}
	if maxErrs != nil && len(maxErrs) != g.NumChunks() {
		return nil, fmt.Errorf("chunk: %d max errors for %d chunks", len(maxErrs), g.NumChunks())
	}
	// Refuse to write what Decode would reject.
	if g.NumChunks() > maxChunks {
		return nil, fmt.Errorf("chunk: %d chunks exceeds the format limit %d", g.NumChunks(), maxChunks)
	}
	ver := byte(versionV2)
	if h.Layered {
		ver = versionV4
	}
	out = append(out, magic[:]...)
	out = append(out, ver, byte(h.Method), h.BoundMode)
	var f8 [8]byte
	binary.LittleEndian.PutUint64(f8[:], math.Float64bits(h.BoundValue))
	out = append(out, f8[:]...)
	binary.LittleEndian.PutUint64(f8[:], math.Float64bits(h.AbsEB))
	out = append(out, f8[:]...)
	out = binary.AppendUvarint(out, uint64(len(h.Dims)))
	for _, d := range h.Dims {
		if d <= 0 {
			return nil, fmt.Errorf("chunk: non-positive dim %d", d)
		}
		out = binary.AppendUvarint(out, uint64(d))
	}
	out = binary.AppendUvarint(out, uint64(len(h.Anchors)))
	for _, a := range h.Anchors {
		out = binary.AppendUvarint(out, uint64(len(a)))
		out = append(out, a...)
	}
	out = binary.AppendUvarint(out, uint64(len(h.Model)))
	out = append(out, h.Model...)
	out = binary.AppendUvarint(out, uint64(g.NumChunks()))
	var c4 [4]byte
	for i, p := range payloads {
		out = binary.AppendUvarint(out, uint64(g.Count(i)))
		out = binary.AppendUvarint(out, uint64(len(p)))
		binary.LittleEndian.PutUint32(c4[:], crc32.ChecksumIEEE(p))
		out = append(out, c4[:]...)
		me := math.NaN()
		if maxErrs != nil {
			me = maxErrs[i]
		}
		binary.LittleEndian.PutUint64(f8[:], math.Float64bits(me))
		out = append(out, f8[:]...)
	}
	return out, nil
}

// EncodeTo streams a container to w: header + index first, then each
// payload in order. It returns the total bytes written. Payloads are
// compressed chunks, so nothing close to the raw field is ever buffered
// here. maxErrs (optional, nil = unknown) records each chunk's achieved
// max absolute error in the index.
func EncodeTo(w io.Writer, h *Header, g *Grid, payloads [][]byte, maxErrs []float64) (int, error) {
	head, err := appendHeader(nil, h, g, payloads, maxErrs)
	if err != nil {
		return 0, err
	}
	total := 0
	n, err := w.Write(head)
	total += n
	if err != nil {
		return total, err
	}
	for _, p := range payloads {
		n, err := w.Write(p)
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// Encode serializes a container into one byte slice.
func Encode(h *Header, g *Grid, payloads [][]byte, maxErrs []float64) ([]byte, error) {
	var buf bytes.Buffer
	if _, err := EncodeTo(&buf, h, g, payloads, maxErrs); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Decode parses a container. Payload bytes reference data (callers must
// not mutate it) and are checksum-verified lazily, per chunk, by
// Archive.Payload — decoding touches only the header and index, which is
// what makes random access cheap.
func Decode(data []byte) (*Archive, error) {
	r := container.NewCursor(data, ErrCorrupt)
	h, idx, err := decodeHeader(r)
	if err != nil {
		return nil, err
	}
	index, err := idx.entries(h, r.Off(), int64(len(data)))
	if err != nil {
		return nil, err
	}
	return &Archive{Header: *h, Index: index, data: data}, nil
}

// fields is the cursor abstraction decodeHeader parses through: the
// shared container.Cursor for in-memory decoding or a buffered stream for
// Reader.
type fields interface {
	Byte() (byte, error)
	Bytes(n int) ([]byte, error)
	Uvarint() (uint64, error)
	Float64() (float64, error)
	Uint32() (uint32, error)
}

// indexData is the parsed per-chunk index: slab counts, payload lengths,
// checksums, and achieved max errors (NaN for version-1 containers).
type indexData struct {
	counts []int
	lens   []int
	sums   []uint32
	errs   []float64
}

// entries lays the parsed index out over a size-byte container whose
// first payload starts at off. The slab counts must tile the dims, and
// the payloads must end exactly at size: none may run past it, and no
// trailing bytes may follow the last.
func (idx *indexData) entries(h *Header, off int, size int64) ([]IndexEntry, error) {
	if _, err := FromCounts(h.Dims, idx.counts); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	slab := 1
	for _, d := range h.Dims[1:] {
		slab *= d
	}
	index := make([]IndexEntry, len(idx.counts))
	start := 0
	for i := range index {
		if int64(off)+int64(idx.lens[i]) > size {
			return nil, fmt.Errorf("%w: chunk %d payload (%d bytes at %d) exceeds blob size %d",
				ErrCorrupt, i, idx.lens[i], off, size)
		}
		index[i] = IndexEntry{
			Start:      start,
			Count:      idx.counts[i],
			Offset:     off,
			RawBytes:   idx.counts[i] * slab * 4,
			PayloadLen: idx.lens[i],
			Checksum:   idx.sums[i],
			MaxErr:     idx.errs[i],
		}
		start += idx.counts[i]
		off += idx.lens[i]
	}
	if int64(off) != size {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, size-int64(off))
	}
	return index, nil
}

// decodeHeader parses everything up to and including the index, leaving
// the cursor at the first payload byte.
func decodeHeader(r fields) (*Header, *indexData, error) {
	m, err := r.Bytes(4)
	if err != nil {
		return nil, nil, err
	}
	if [4]byte(m) != magic {
		return nil, nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, m)
	}
	ver, err := r.Byte()
	if err != nil {
		return nil, nil, err
	}
	if ver < versionV1 || ver > versionV4 {
		return nil, nil, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, ver)
	}
	h := &Header{Layered: ver == versionV4}
	mb, err := r.Byte()
	if err != nil {
		return nil, nil, err
	}
	h.Method = container.Method(mb)
	if h.BoundMode, err = r.Byte(); err != nil {
		return nil, nil, err
	}
	if h.BoundValue, err = r.Float64(); err != nil {
		return nil, nil, err
	}
	if h.AbsEB, err = r.Float64(); err != nil {
		return nil, nil, err
	}
	rank, err := r.Uvarint()
	if err != nil {
		return nil, nil, err
	}
	if rank < 1 || rank > 3 {
		return nil, nil, fmt.Errorf("%w: rank %d", ErrCorrupt, rank)
	}
	h.Dims = make([]int, rank)
	for i := range h.Dims {
		d, err := r.Uvarint()
		if err != nil {
			return nil, nil, err
		}
		if d == 0 || d > 1<<32 {
			return nil, nil, fmt.Errorf("%w: dim %d", ErrCorrupt, d)
		}
		h.Dims[i] = int(d)
	}
	// NumPoints/RawBytes must stay in int range, or downstream
	// allocations overflow.
	if _, err := container.CheckVolume(h.Dims); err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	na, err := r.Uvarint()
	if err != nil {
		return nil, nil, err
	}
	if na > 256 {
		return nil, nil, fmt.Errorf("%w: %d anchors", ErrCorrupt, na)
	}
	h.Anchors = make([]string, na)
	for i := range h.Anchors {
		l, err := r.Uvarint()
		if err != nil {
			return nil, nil, err
		}
		if l > 4096 {
			return nil, nil, fmt.Errorf("%w: anchor name length %d", ErrCorrupt, l)
		}
		nb, err := r.Bytes(int(l))
		if err != nil {
			return nil, nil, err
		}
		h.Anchors[i] = string(nb)
	}
	ml, err := r.Uvarint()
	if err != nil {
		return nil, nil, err
	}
	if h.Model, err = r.Bytes(int(ml)); err != nil {
		return nil, nil, err
	}
	nc, err := r.Uvarint()
	if err != nil {
		return nil, nil, err
	}
	if nc == 0 || nc > maxChunks {
		return nil, nil, fmt.Errorf("%w: %d chunks", ErrCorrupt, nc)
	}
	idx := &indexData{
		counts: make([]int, nc),
		lens:   make([]int, nc),
		sums:   make([]uint32, nc),
		errs:   make([]float64, nc),
	}
	for i := range idx.counts {
		c, err := r.Uvarint()
		if err != nil {
			return nil, nil, err
		}
		if c == 0 || c > 1<<32 {
			return nil, nil, fmt.Errorf("%w: chunk %d slab count %d", ErrCorrupt, i, c)
		}
		idx.counts[i] = int(c)
		l, err := r.Uvarint()
		if err != nil {
			return nil, nil, err
		}
		if l > uint64(math.MaxInt32) {
			return nil, nil, fmt.Errorf("%w: chunk %d payload length %d", ErrCorrupt, i, l)
		}
		idx.lens[i] = int(l)
		if idx.sums[i], err = r.Uint32(); err != nil {
			return nil, nil, err
		}
		idx.errs[i] = math.NaN()
		if ver >= versionV2 {
			if idx.errs[i], err = r.Float64(); err != nil {
				return nil, nil, err
			}
		}
	}
	return h, idx, nil
}

// Reader is a container's header and chunk index parsed through an
// io.ReaderAt: the payload bytes stay on the source, so a multi-GB field
// is indexed without holding the compressed container in memory.
type Reader struct {
	header Header
	index  []IndexEntry
}

// NewReader parses the header and chunk index of the size-byte container
// at the start of r, as strictly as Decode: the payloads must end exactly
// at size.
func NewReader(r io.ReaderAt, size int64) (*Reader, error) {
	sr := container.NewStreamCursor(io.NewSectionReader(r, 0, size), ErrCorrupt)
	h, idx, err := decodeHeader(sr)
	if err != nil {
		return nil, err
	}
	index, err := idx.entries(h, sr.Off(), size)
	if err != nil {
		return nil, err
	}
	return &Reader{header: *h, index: index}, nil
}

// Header returns the shared container header.
func (r *Reader) Header() *Header { return &r.header }

// Index returns the chunk index.
func (r *Reader) Index() []IndexEntry { return r.index }
