package lossless

import (
	"bytes"
	"compress/flate"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

func backends() []Backend { return []Backend{Store{}, Flate{}} }

func TestRoundTripAllBackends(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	payloads := [][]byte{
		nil,
		{},
		[]byte("hello"),
		bytes.Repeat([]byte{0}, 10000),
		make([]byte, 4096),
	}
	for i := range payloads[4] {
		payloads[4][i] = byte(rng.Intn(256))
	}
	for _, b := range backends() {
		for pi, p := range payloads {
			comp, err := b.Compress(p)
			if err != nil {
				t.Fatalf("%s payload %d: %v", b.Name(), pi, err)
			}
			back, err := b.Decompress(comp, len(p))
			if err != nil {
				t.Fatalf("%s payload %d: %v", b.Name(), pi, err)
			}
			if !bytes.Equal(back, p) {
				t.Fatalf("%s payload %d: round-trip mismatch", b.Name(), pi)
			}
		}
	}
}

func TestFlateCompressesRedundancy(t *testing.T) {
	p := bytes.Repeat([]byte("abcd"), 10000)
	comp, err := (Flate{}).Compress(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(comp) >= len(p)/10 {
		t.Fatalf("flate: %d -> %d, expected >=10x on repetitive data", len(p), len(comp))
	}
}

func TestDecompressLengthCheck(t *testing.T) {
	comp, err := (Flate{}).Compress([]byte("12345"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (Flate{}).Decompress(comp, 99); err == nil {
		t.Fatal("expected length mismatch error")
	}
	// -1 skips the check.
	if _, err := (Flate{}).Decompress(comp, -1); err != nil {
		t.Fatal(err)
	}
	if _, err := (Store{}).Decompress([]byte("abc"), 2); err == nil {
		t.Fatal("expected store length error")
	}

	// A declared length is a claim, not an allocation size: a stream of
	// 64 MiB of zeros declared as 10 bytes, and an 11-byte stream declared
	// as 1 GiB, must both fail without allocating what either side claims.
	var bomb bytes.Buffer
	w, err := flate.NewWriter(&bomb, flate.BestCompression)
	if err != nil {
		t.Fatal(err)
	}
	zeros := make([]byte, 1<<20)
	for i := 0; i < 64; i++ {
		if _, err := w.Write(zeros); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	small, err := (Flate{}).Compress([]byte("lie"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		src      []byte
		declared int
	}{
		{"64 MiB of zeros declared as 10 B", bomb.Bytes(), 10},
		{fmt.Sprintf("%d-byte stream declared as 1 GiB", len(small)), small, 1 << 30},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := (Flate{}).Decompress(tc.src, tc.declared)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: decoded without a length error", tc.name)
		}
		if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
			t.Errorf("%s: allocated %d bytes, want under 1 MiB", tc.name, d)
		}
	}
}

func TestDecompressGarbage(t *testing.T) {
	if _, err := (Flate{}).Decompress([]byte{0xde, 0xad, 0xbe, 0xef, 0x99}, -1); err == nil {
		t.Fatal("expected error for garbage stream")
	}
}

func TestByID(t *testing.T) {
	for _, b := range backends() {
		got, err := ByID(b.ID())
		if err != nil {
			t.Fatal(err)
		}
		if got.ID() != b.ID() {
			t.Fatalf("ByID(%d) returned id %d", b.ID(), got.ID())
		}
	}
	if _, err := ByID(200); err == nil {
		t.Fatal("expected unknown-id error")
	}
}

func TestDefaultIsFlate(t *testing.T) {
	if Default().ID() != IDFlate {
		t.Fatal("default backend should be flate")
	}
}

func TestStoreCopies(t *testing.T) {
	src := []byte{1, 2, 3}
	comp, _ := (Store{}).Compress(src)
	src[0] = 9
	if comp[0] != 1 {
		t.Fatal("store must copy, not alias")
	}
}

func TestFlateLevels(t *testing.T) {
	p := bytes.Repeat([]byte("scientific data "), 2000)
	fast, err := (Flate{Level: 1}).Compress(p)
	if err != nil {
		t.Fatal(err)
	}
	best, err := (Flate{Level: 9}).Compress(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, comp := range [][]byte{fast, best} {
		back, err := (Flate{}).Decompress(comp, len(p))
		if err != nil || !bytes.Equal(back, p) {
			t.Fatal("level round-trip failed")
		}
	}
}

// Property: arbitrary byte strings round-trip on every backend.
func TestRoundTripProperty(t *testing.T) {
	f := func(p []byte) bool {
		for _, b := range backends() {
			comp, err := b.Compress(p)
			if err != nil {
				return false
			}
			back, err := b.Decompress(comp, len(p))
			if err != nil || !bytes.Equal(back, p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
