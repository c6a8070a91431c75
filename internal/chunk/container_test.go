package chunk

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"testing"

	"repro/internal/container"
)

func testArchive(t *testing.T) (*Header, *Grid, [][]byte, []byte) {
	t.Helper()
	h := &Header{
		Method:     container.MethodHybrid,
		BoundMode:  1,
		BoundValue: 1e-3,
		AbsEB:      0.042,
		Dims:       []int{10, 4, 6},
		Anchors:    []string{"Uf", "Vf"},
		Model:      []byte("pretend-cfnn-weights"),
	}
	g, err := Plan(h.Dims, 3*4*6)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	payloads := make([][]byte, g.NumChunks())
	for i := range payloads {
		payloads[i] = make([]byte, 16+rng.Intn(64))
		rng.Read(payloads[i])
	}
	blob, err := Encode(h, g, payloads, nil)
	if err != nil {
		t.Fatal(err)
	}
	return h, g, payloads, blob
}

func TestContainerRoundTrip(t *testing.T) {
	h, g, payloads, blob := testArchive(t)
	if !IsChunked(blob) {
		t.Fatal("IsChunked = false on a CFC2 blob")
	}
	if IsChunked([]byte("CFC1....")) {
		t.Fatal("IsChunked = true on a CFC1 prefix")
	}
	a, err := Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	if a.Method != h.Method || a.BoundMode != h.BoundMode ||
		a.BoundValue != h.BoundValue || a.AbsEB != h.AbsEB {
		t.Fatalf("header mismatch: %+v", a.Header)
	}
	if len(a.Dims) != 3 || a.Dims[0] != 10 || a.Dims[1] != 4 || a.Dims[2] != 6 {
		t.Fatalf("dims = %v", a.Dims)
	}
	if len(a.Anchors) != 2 || a.Anchors[0] != "Uf" || a.Anchors[1] != "Vf" {
		t.Fatalf("anchors = %v", a.Anchors)
	}
	if !bytes.Equal(a.Model, h.Model) {
		t.Fatal("model blob mismatch")
	}
	if a.NumChunks() != g.NumChunks() {
		t.Fatalf("NumChunks = %d, want %d", a.NumChunks(), g.NumChunks())
	}
	for i := range payloads {
		e := a.Index[i]
		if e.Start != g.Start(i) || e.Count != g.Count(i) {
			t.Fatalf("chunk %d slab range (%d,%d), want (%d,%d)", i, e.Start, e.Count, g.Start(i), g.Count(i))
		}
		if e.RawBytes != g.Voxels(i)*4 {
			t.Fatalf("chunk %d RawBytes = %d, want %d", i, e.RawBytes, g.Voxels(i)*4)
		}
		if e.PayloadLen != len(payloads[i]) {
			t.Fatalf("chunk %d PayloadLen = %d, want %d", i, e.PayloadLen, len(payloads[i]))
		}
		p, err := a.Payload(i)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(p, payloads[i]) {
			t.Fatalf("chunk %d payload mismatch", i)
		}
	}
	// Re-encode from the decoded pieces: byte-stable.
	g2, err := a.Grid()
	if err != nil {
		t.Fatal(err)
	}
	re, err := Encode(&a.Header, g2, payloads, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(re, blob) {
		t.Fatal("re-encode not byte-stable")
	}
}

func TestIndexCarriesMaxErrs(t *testing.T) {
	h, g, payloads, _ := testArchive(t)
	maxErrs := make([]float64, g.NumChunks())
	for i := range maxErrs {
		maxErrs[i] = 0.001 * float64(i+1)
	}
	blob, err := Encode(h, g, payloads, maxErrs)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range a.Index {
		if e.MaxErr != maxErrs[i] {
			t.Fatalf("chunk %d MaxErr = %v, want %v", i, e.MaxErr, maxErrs[i])
		}
	}
	// nil maxErrs reads back as NaN ("unknown"), both in-memory and
	// streaming.
	blob2, err := Encode(h, g, payloads, nil)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := Decode(blob2)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(bytes.NewReader(blob2), int64(len(blob2)))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a2.Index {
		if !math.IsNaN(a2.Index[i].MaxErr) || !math.IsNaN(r.Index()[i].MaxErr) {
			t.Fatalf("chunk %d MaxErr = %v/%v, want NaN", i, a2.Index[i].MaxErr, r.Index()[i].MaxErr)
		}
	}
}

// encodeV1 serializes the version-1 layout (no per-chunk max errors) so
// the compatibility path stays covered.
func encodeV1(h *Header, g *Grid, payloads [][]byte) []byte {
	out := append([]byte(nil), magic[:]...)
	out = append(out, versionV1, byte(h.Method), h.BoundMode)
	var f8 [8]byte
	binary.LittleEndian.PutUint64(f8[:], math.Float64bits(h.BoundValue))
	out = append(out, f8[:]...)
	binary.LittleEndian.PutUint64(f8[:], math.Float64bits(h.AbsEB))
	out = append(out, f8[:]...)
	out = binary.AppendUvarint(out, uint64(len(h.Dims)))
	for _, d := range h.Dims {
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
	}
	for _, p := range payloads {
		out = append(out, p...)
	}
	return out
}

func TestDecodeAcceptsVersion1(t *testing.T) {
	h, g, payloads, _ := testArchive(t)
	blob := encodeV1(h, g, payloads)
	a, err := Decode(blob)
	if err != nil {
		t.Fatalf("v1 container rejected: %v", err)
	}
	if a.Method != h.Method || a.AbsEB != h.AbsEB || a.NumChunks() != g.NumChunks() {
		t.Fatalf("v1 header mismatch: %+v", a.Header)
	}
	for i := range payloads {
		if !math.IsNaN(a.Index[i].MaxErr) {
			t.Fatalf("v1 chunk %d MaxErr = %v, want NaN", i, a.Index[i].MaxErr)
		}
		p, err := a.Payload(i)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(p, payloads[i]) {
			t.Fatalf("v1 chunk %d payload mismatch", i)
		}
	}
	r, err := NewReader(bytes.NewReader(blob), int64(len(blob)))
	if err != nil {
		t.Fatalf("v1 stream rejected: %v", err)
	}
	for i, e := range r.Index() {
		if !bytes.Equal(blob[e.Offset:e.Offset+e.PayloadLen], payloads[i]) {
			t.Fatalf("v1 stream chunk %d mismatch", i)
		}
	}
}

// The index a Reader parses through an io.ReaderAt locates the same
// payloads as Decode's, and it is as strict about the container's size.
func TestReaderStreamsSamePayloads(t *testing.T) {
	_, _, payloads, blob := testArchive(t)
	r, err := NewReader(bytes.NewReader(blob), int64(len(blob)))
	if err != nil {
		t.Fatal(err)
	}
	a, err := Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(r.Index()) != fmt.Sprint(a.Index) { // NaN max errors compare as text
		t.Fatalf("Reader index %+v, Decode index %+v", r.Index(), a.Index)
	}
	for i, e := range r.Index() {
		if !bytes.Equal(blob[e.Offset:e.Offset+e.PayloadLen], payloads[i]) {
			t.Fatalf("chunk %d: index does not locate its payload", i)
		}
	}
	long := append(append([]byte(nil), blob...), 0xAA)
	for _, src := range [][]byte{blob[:len(blob)-1], long} {
		if _, err := NewReader(bytes.NewReader(src), int64(len(src))); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%d-byte container of %d: err = %v, want ErrCorrupt", len(src), len(blob), err)
		}
	}
}

// TestReaderAllocsIndependentOfChunkCount pins NewReader's index parse:
// the fixed-width fields of each index entry (checksum, max error) read
// through the cursor's scratch, so 64 chunks cost no more allocations
// than 4.
func TestReaderAllocsIndependentOfChunkCount(t *testing.T) {
	allocs := func(chunks int) float64 {
		h := &Header{Method: container.MethodBaseline, AbsEB: 0.5, Dims: []int{64, 4, 6}}
		g, err := Plan(h.Dims, 64/chunks*4*6)
		if err != nil {
			t.Fatal(err)
		}
		payloads := make([][]byte, g.NumChunks())
		for i := range payloads {
			payloads[i] = []byte{byte(i), 1, 2, 3}
		}
		blob, err := Encode(h, g, payloads, make([]float64, g.NumChunks()))
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := NewReader(bytes.NewReader(blob), int64(len(blob))); err != nil {
				t.Fatal(err)
			}
		})
	}
	if few, many := allocs(4), allocs(64); many != few {
		t.Fatalf("NewReader allocations: %v at 4 chunks, %v at 64", few, many)
	}
}

func TestDecodeRejectsChecksumMismatch(t *testing.T) {
	_, _, _, blob := testArchive(t)
	a, err := Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), blob...)
	bad[a.Index[1].Offset] ^= 0xff // flip a byte inside chunk 1's payload
	ab, err := Decode(bad)
	if err != nil {
		t.Fatalf("index decode should succeed, payload verify is lazy: %v", err)
	}
	if _, err := ab.Payload(1); !errors.Is(err, ErrChecksum) {
		t.Fatalf("Payload(1) err = %v, want ErrChecksum", err)
	}
	// Other chunks stay readable: corruption is contained.
	if _, err := ab.Payload(0); err != nil {
		t.Fatalf("Payload(0) err = %v", err)
	}
}

func TestDecodeRejectsTruncationAndTrailing(t *testing.T) {
	_, _, _, blob := testArchive(t)
	for _, cut := range []int{1, len(blob) / 4, len(blob) / 2, len(blob) - 1} {
		if _, err := Decode(blob[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if _, err := Decode(append(append([]byte(nil), blob...), 0xAA)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
}

func TestDecodeRejectsBadIndex(t *testing.T) {
	h, g, payloads, _ := testArchive(t)
	// Counts that do not sum to dims[0].
	badGrid := *g
	badGrid.counts = append([]int(nil), g.counts...)
	badGrid.counts[0]++
	if _, err := Encode(h, &badGrid, payloads, nil); err == nil {
		// Encode may not validate the sum; the decoder must.
		blob, err := Encode(h, &badGrid, payloads, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Decode(blob); err == nil {
			t.Fatal("slab-count/dims mismatch accepted")
		}
	}
	// Payload length pointing past the end of the blob.
	blob, err := Encode(h, g, payloads, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(blob[:len(blob)-3]); err == nil {
		t.Fatal("short payload region accepted")
	}
}

// A near-MaxInt64 section length must not overflow the bounds check into
// a slice panic (regression: the model-length field is unbounded).
func TestDecodeHugeModelLengthNoPanic(t *testing.T) {
	blob := append([]byte(nil), magic[:]...)
	blob = append(blob, versionV2, 0, 0)        // method, bound mode
	blob = append(blob, make([]byte, 16)...)    // bound value + abs eb
	blob = append(blob, 1, 1)                   // rank 1, dim 1
	blob = append(blob, 0)                      // no anchors
	blob = binary.AppendUvarint(blob, 1<<63-25) // huge model length
	blob = append(blob, 1, 1, 1, 0, 0, 0, 0, 0) // index-ish trailing bytes
	if _, err := Decode(blob); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	if _, err := NewReader(bytes.NewReader(blob), int64(len(blob))); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("stream err = %v, want ErrCorrupt", err)
	}
}

// A dims product that overflows int (or its ×4 byte size) must be
// rejected at decode, not crash allocations downstream.
func TestDecodeDimsVolumeOverflowRejected(t *testing.T) {
	blob := append([]byte(nil), magic[:]...)
	blob = append(blob, versionV2, 0, 0)     // method, bound mode
	blob = append(blob, make([]byte, 16)...) // bound value + abs eb
	blob = append(blob, 2)                   // rank 2
	blob = binary.AppendUvarint(blob, 1<<31) // dim 0
	blob = binary.AppendUvarint(blob, 1<<32) // dim 1: product = 2^63
	blob = append(blob, 0)                   // no anchors
	blob = append(blob, 0)                   // no model
	blob = append(blob, 1)                   // one chunk
	blob = binary.AppendUvarint(blob, 1<<31) // count = dim 0
	blob = append(blob, 0, 0, 0, 0, 0)       // payloadLen 0, CRC 0
	if _, err := Decode(blob); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	if _, err := NewReader(bytes.NewReader(blob), int64(len(blob))); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("stream err = %v, want ErrCorrupt", err)
	}
}

// The encoder must refuse chunk counts the decoder would reject.
func TestEncodeRejectsTooManyChunks(t *testing.T) {
	n := maxChunks + 1
	counts := make([]int, n)
	for i := range counts {
		counts[i] = 1
	}
	g, err := FromCounts([]int{n}, counts)
	if err != nil {
		t.Fatal(err)
	}
	h := &Header{Dims: []int{n}}
	if _, err := Encode(h, g, make([][]byte, n), nil); err == nil {
		t.Fatal("encoder wrote a container Decode would reject")
	}
	// Plan never produces such a grid: tiny chunkVoxels on a long axis
	// rounds up instead.
	pg, err := Plan([]int{n}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if pg.NumChunks() > maxChunks {
		t.Fatalf("Plan produced %d chunks > limit %d", pg.NumChunks(), maxChunks)
	}
	total := 0
	for i := 0; i < pg.NumChunks(); i++ {
		total += pg.Count(i)
	}
	if total != n {
		t.Fatalf("clamped plan covers %d of %d slabs", total, n)
	}
}

func TestDecodeArbitraryBytesNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 500; trial++ {
		blob := make([]byte, rng.Intn(512))
		rng.Read(blob)
		copy(blob, magic[:]) // force the interesting path
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on arbitrary bytes: %v", r)
				}
			}()
			if a, err := Decode(blob); err == nil {
				for i := 0; i < a.NumChunks(); i++ {
					_, _ = a.Payload(i)
				}
			}
			_, _ = NewReader(bytes.NewReader(blob), int64(len(blob)))
		}()
	}
}
