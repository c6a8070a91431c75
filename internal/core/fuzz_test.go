package core

import (
	"bytes"
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/archive"
	"repro/internal/chunk"
	"repro/internal/container"
	"repro/internal/huffman"
	"repro/internal/lossless"
	"repro/internal/quant"
)

// FuzzDecodePayload drives the payload engine itself at LevelFull and at
// the first two preview levels: input that parses as a CFC1 payload is
// planned (planPayload) and reconstructed with zero-valued cross-field
// predictions, so the hybrid reconstruction runs too. Malformed input must error,
// never panic. The corpus is seeded by addGoldenSeeds.
//
//	go test -run '^$' -fuzz '^FuzzDecodePayload$' -fuzztime 30s ./internal/core
func FuzzDecodePayload(f *testing.F) {
	addGoldenSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		if !fuzzSized(data) {
			t.Skip("headers declare an oversized decode")
		}
		for _, level := range []int{LevelFull, 0, 1} {
			b, err := parsePayload(data, level)
			if err != nil {
				continue
			}
			var dq [][]float64
			if b.Method != container.MethodBaseline {
				dq = make([][]float64, len(b.Dims))
				for k := range dq {
					dq[k] = make([]float64, b.NumPoints())
				}
			}
			if p, err := planPayload(b, level, 2); err == nil {
				_ = p.reconstruct(context.Background(), dq, make([]float32, b.NumPoints()), 2)
			}
		}
	})
}

// FuzzDecodeAtLevelReader drives the one decode call through an
// io.ReaderAt over CFC1 and CFC2 alike: whole and chunk 0, at LevelFull
// and at the first two preview levels, without anchors (so a CFC2 model
// is never loaded), over the same corpus and size filter as
// FuzzDecodePayload. Malformed input must error, never panic.
//
//	go test -run '^$' -fuzz '^FuzzDecodeAtLevelReader$' -fuzztime 30s ./internal/core
func FuzzDecodeAtLevelReader(f *testing.F) {
	addGoldenSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		if !fuzzSized(data) {
			t.Skip("headers declare an oversized decode")
		}
		for _, level := range []int{LevelFull, 0, 1} {
			for _, i := range []int{Whole, 0} {
				_, _, _, _ = decodeBlob(data, Request{Chunk: i, Level: level, Workers: 2})
			}
		}
	})
}

// addGoldenSeeds seeds a fuzz corpus with every committed golden fixture,
// the field payloads of the archives and the chunk payloads of every CFC2
// container, so mutations start from each format version and method.
func addGoldenSeeds(f *testing.F) {
	files, err := filepath.Glob("../../testdata/golden/*.cfc")
	if err != nil || len(files) == 0 {
		f.Fatalf("no golden fixtures to seed from (err=%v)", err)
	}
	var seeds [][]byte
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, data)
	}
	// Unpack archives into their field payloads, and CFC2 containers into
	// their chunk payloads, appending to the list as it is walked.
	for k := 0; k < len(seeds); k++ {
		if a, err := archive.Decode(seeds[k]); err == nil {
			for i := 0; i < a.NumFields(); i++ {
				if p, err := a.Payload(i); err == nil {
					seeds = append(seeds, p)
				}
			}
		} else if a, err := chunk.Decode(seeds[k]); err == nil {
			for i := range a.Index {
				if p, err := a.Payload(i); err == nil {
					seeds = append(seeds, p)
				}
			}
		}
		f.Add(seeds[k])
	}
}

// fuzzSized reports whether every header in data declares a small
// volume. The decoder still sizes volumes by what headers declare (raw
// stream lengths are checked against the codes they must hold and against
// what the lossless stage can inflate, and Huffman alphabets against the
// table's bytes), so without this filter the fuzzer would measure the
// host's memory rather than the decoder.
func fuzzSized(data []byte) bool {
	const maxVoxels = 1 << 12
	small := func(dims []int) bool {
		n, err := container.CheckVolume(dims)
		return err == nil && n <= maxVoxels
	}
	payloads := [][]byte{data}
	if a, err := chunk.Decode(data); err == nil {
		if !small(a.Dims) {
			return false
		}
		payloads = payloads[:0]
		for i := range a.Index {
			if p, err := a.Payload(i); err == nil {
				payloads = append(payloads, p)
			}
		}
	}
	for _, p := range payloads {
		b, _, err := container.DecodePrefix(p)
		if err != nil {
			continue // rejected at parse time
		}
		if !small(b.Dims) {
			return false
		}
	}
	return true
}

// TestDecodeAllocationsBoundedByInput: lengths and volumes a header
// declares must not become allocations the input cannot back. A 16M-voxel
// payload whose code stream declares 10 bytes cannot hold 16M Huffman
// codes, and a ReaderAt payload whose index claims 2 GiB over a 100-byte
// source cannot be read; both must fail having allocated under 1 MiB.
func TestDecodeAllocationsBoundedByInput(t *testing.T) {
	codec, err := huffman.Build([]int32{0, 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	table, err := codec.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	b := &container.Blob{
		Header:     container.Header{Method: container.MethodBaseline, AbsEB: 1, Dims: []int{256, 256, 256}, BackendID: lossless.IDStore},
		Table:      table,
		PayloadRaw: 10,
		Payload:    make([]byte, 10),
	}
	for _, tc := range []struct {
		name   string
		decode func() error
	}{
		{"16M codes in a 10-byte stream", func() error {
			_, _, err := decodePayload(context.Background(), b, LevelFull, nil, nil, nil, nil, 1)
			return err
		}},
		{"2 GiB payload over a 100-byte source", func() error {
			_, err := readPayload(bytes.NewReader(make([]byte, 100)), 0, 1<<31-1, LevelFull, nil)
			return err
		}},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := tc.decode()
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: decoded without error", tc.name)
		}
		if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
			t.Errorf("%s: allocated %d bytes, want under 1 MiB", tc.name, d)
		}
	}
}

// Property: Decompress never panics on arbitrary byte blobs — it either
// errors or (vanishingly unlikely) returns a field. Malformed input is a
// normal condition for a codec that reads files.
func TestDecompressArbitraryBytesNeverPanics(t *testing.T) {
	f := func(seed int64, n uint16) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		rng := rand.New(rand.NewSource(seed))
		blob := make([]byte, int(n%2048))
		rng.Read(blob)
		_, _ = Decompress(blob, nil)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: flipping any single byte of a valid baseline blob either
// errors, or decodes to the correct shape (a flipped payload bit can land
// in Huffman padding). Never a panic.
func TestDecompressSingleByteFlips(t *testing.T) {
	field := smoothField2D(16, 16, 50)
	res, err := compress(field, EncodeRequest{Bound: quant.AbsBound(0.05)})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Blob {
		bad := append([]byte(nil), res.Blob...)
		bad[i] ^= 0x55
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic flipping byte %d: %v", i, r)
				}
			}()
			recon, err := Decompress(bad, nil)
			if err == nil && recon != nil && recon.Len() != field.Len() {
				t.Fatalf("byte %d: wrong-size reconstruction accepted", i)
			}
		}()
	}
}

// Same property over the committed chunked CFC2 v3 fixture: flips and
// truncations that land in the block table (mode byte, edge uvarints,
// segment lengths) must surface as errors or correctly-shaped output —
// the table is fully validated before any worker touches the payload, so
// no slice arithmetic downstream can go out of bounds.
func TestCFC2V3CorruptBlockTablesNeverPanic(t *testing.T) {
	blob := goldenBlob(t, "chunked_cfc2v3.cfc")
	if blob[4] != 3 {
		t.Fatalf("fixture is CFC2 v%d, want v3", blob[4])
	}
	want, err := Decompress(blob, nil)
	if err != nil {
		t.Fatal(err)
	}
	check := func(label string, blob []byte) {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("panic on %s: %v", label, r)
			}
		}()
		recon, err := Decompress(blob, nil)
		if err == nil && recon != nil && recon.Len() != want.Len() {
			t.Fatalf("%s: wrong-size reconstruction accepted", label)
		}
	}
	for i := range blob {
		bad := append([]byte(nil), blob...)
		bad[i] ^= 0x55
		check("flip", bad)
	}
	for n := 0; n < len(blob); n += 7 {
		check("truncate", blob[:n])
	}
}
