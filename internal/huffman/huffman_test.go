package huffman

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/bitstream"
	"repro/internal/metrics"
)

func roundTrip(t *testing.T, codes []int32, maxSymbols int) []byte {
	t.Helper()
	c, err := Build(codes, maxSymbols)
	if err != nil {
		t.Fatal(err)
	}
	var w bitstream.Writer
	if err := c.Encode(&w, codes); err != nil {
		t.Fatal(err)
	}
	payload := w.Bytes()
	r := bitstream.NewReader(payload)
	back, err := c.Decode(r, len(codes))
	if err != nil {
		t.Fatal(err)
	}
	for i := range codes {
		if back[i] != codes[i] {
			t.Fatalf("decode mismatch at %d: %d vs %d", i, back[i], codes[i])
		}
	}
	return payload
}

func TestRoundTripSimple(t *testing.T) {
	roundTrip(t, []int32{0, 0, 0, 1, 1, -1, 5, 0, 0, 2}, 0)
}

func TestRoundTripSingleSymbol(t *testing.T) {
	codes := make([]int32, 100)
	payload := roundTrip(t, codes, 0)
	// 100 one-or-two-bit codes => at most ~26 bytes.
	if len(payload) > 30 {
		t.Fatalf("single-symbol payload %d bytes", len(payload))
	}
}

func TestRoundTripEmpty(t *testing.T) {
	c, err := Build(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var w bitstream.Writer
	if err := c.Encode(&w, nil); err != nil {
		t.Fatal(err)
	}
	back, err := c.Decode(bitstream.NewReader(w.Bytes()), 0)
	if err != nil || len(back) != 0 {
		t.Fatalf("empty round trip: %v, %v", back, err)
	}
}

func TestSkewedDistributionCompresses(t *testing.T) {
	// 90% zeros should compress far below 32 bits/code.
	rng := rand.New(rand.NewSource(1))
	codes := make([]int32, 10000)
	for i := range codes {
		if rng.Float64() < 0.9 {
			codes[i] = 0
		} else {
			codes[i] = int32(rng.Intn(20) - 10)
		}
	}
	payload := roundTrip(t, codes, 0)
	bitsPerCode := float64(len(payload)*8) / float64(len(codes))
	if bitsPerCode > 2.0 {
		t.Fatalf("bits/code = %v, want < 2 for 90%%-zero stream", bitsPerCode)
	}
}

func TestNearEntropyOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	codes := make([]int32, 20000)
	for i := range codes {
		// Geometric-ish distribution like real quantization codes.
		v := int32(0)
		for rng.Float64() < 0.5 && v < 12 {
			v++
		}
		if rng.Intn(2) == 0 {
			v = -v
		}
		codes[i] = v
	}
	payload := roundTrip(t, codes, 0)
	h := metrics.Entropy(metrics.Histogram(codes))
	bitsPerCode := float64(len(payload)*8) / float64(len(codes))
	if bitsPerCode > h+1.0 {
		t.Fatalf("bits/code %v exceeds entropy %v + 1", bitsPerCode, h)
	}
}

func TestEscapePath(t *testing.T) {
	// Tiny alphabet cap forces most symbols through escape.
	rng := rand.New(rand.NewSource(3))
	codes := make([]int32, 2000)
	for i := range codes {
		codes[i] = int32(rng.Intn(1000) - 500)
	}
	roundTrip(t, codes, 8)
}

func TestEncodeUnseenSymbolUsesEscape(t *testing.T) {
	c, err := Build([]int32{1, 1, 2, 2, 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var w bitstream.Writer
	// 999 never appeared during Build.
	if err := c.Encode(&w, []int32{1, 999, 2}); err != nil {
		t.Fatal(err)
	}
	back, err := c.Decode(bitstream.NewReader(w.Bytes()), 3)
	if err != nil {
		t.Fatal(err)
	}
	if back[0] != 1 || back[1] != 999 || back[2] != 2 {
		t.Fatalf("decoded %v", back)
	}
}

func TestTableSerializationRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	codes := make([]int32, 5000)
	for i := range codes {
		codes[i] = int32(rng.Intn(60) - 30)
	}
	c, err := Build(codes, 0)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := c.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	c2, consumed, err := UnmarshalCodec(blob)
	if err != nil {
		t.Fatal(err)
	}
	if consumed != len(blob) {
		t.Fatalf("consumed %d of %d", consumed, len(blob))
	}
	// A decoded table only decodes: what the built codec encodes, the
	// deserialized one decodes.
	var w bitstream.Writer
	if err := c2.Encode(&w, codes); err == nil {
		t.Fatal("a codec decoded from a table encoded")
	}
	if err := c.Encode(&w, codes); err != nil {
		t.Fatal(err)
	}
	back, err := c2.Decode(bitstream.NewReader(w.Bytes()), len(codes))
	if err != nil {
		t.Fatal(err)
	}
	for i := range codes {
		if back[i] != codes[i] {
			t.Fatal("cross-codec decode mismatch")
		}
	}
}

func TestUnmarshalCorrupt(t *testing.T) {
	if _, _, err := UnmarshalCodec(nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("nil table: %v", err)
	}
	if _, _, err := UnmarshalCodec([]byte{0}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("zero alphabet: %v", err)
	}
	// Truncated mid-entry.
	c, _ := Build([]int32{1, 2, 3, 4}, 0)
	blob, _ := c.MarshalBinary()
	if _, _, err := UnmarshalCodec(blob[:len(blob)-1]); err == nil {
		t.Fatal("expected truncation error")
	}
	// A symbol listed twice, at different lengths so the copies are not
	// neighbors in canonical order.
	dup := tableBytes([]int64{4, escSym, -1, 4}, []uint8{1, 2, 3, 3})
	if _, _, err := UnmarshalCodec(dup); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "duplicate symbol 4") {
		t.Fatalf("duplicate symbol: %v", err)
	}
}

func TestDecodeCorruptPayload(t *testing.T) {
	c, err := Build([]int32{0, 0, 1, 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Not enough bits for the requested count.
	_, err = c.Decode(bitstream.NewReader([]byte{}), 5)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestNumSymbolsAndMaxLength(t *testing.T) {
	c, err := Build([]int32{1, 2, 3, 4, 5}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// 5 distinct + escape = 6 symbols.
	if c.NumSymbols() != 6 {
		t.Fatalf("NumSymbols = %d", c.NumSymbols())
	}
	if c.MaxLength() <= 0 || c.MaxLength() > maxCodeLen {
		t.Fatalf("MaxLength = %d", c.MaxLength())
	}
}

// Property: random code streams of any distribution round-trip exactly,
// including through table serialization.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64, spread uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 500
		s := int(spread%200) + 1
		codes := make([]int32, n)
		for i := range codes {
			codes[i] = int32(rng.Intn(2*s) - s)
		}
		c, err := Build(codes, 0)
		if err != nil {
			return false
		}
		blob, err := c.MarshalBinary()
		if err != nil {
			return false
		}
		c2, _, err := UnmarshalCodec(blob)
		if err != nil {
			return false
		}
		var w bitstream.Writer
		if err := c.Encode(&w, codes); err != nil {
			return false
		}
		back, err := c2.Decode(bitstream.NewReader(w.Bytes()), n)
		if err != nil {
			return false
		}
		for i := range codes {
			if back[i] != codes[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: Kraft inequality holds on the generated lengths (implicitly
// checked by newCanonical); here we verify codes are prefix-free by
// decoding a concatenation of every symbol once.
func TestPrefixFreeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		distinct := rng.Intn(50) + 2
		codes := make([]int32, 0, distinct*3)
		for s := 0; s < distinct; s++ {
			reps := rng.Intn(5) + 1
			for r := 0; r < reps; r++ {
				codes = append(codes, int32(s))
			}
		}
		c, err := Build(codes, 0)
		if err != nil {
			return false
		}
		all := make([]int32, distinct)
		for i := range all {
			all[i] = int32(i)
		}
		var w bitstream.Writer
		if err := c.Encode(&w, all); err != nil {
			return false
		}
		back, err := c.Decode(bitstream.NewReader(w.Bytes()), distinct)
		if err != nil {
			return false
		}
		for i := range all {
			if back[i] != all[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// refDecodeInto is the bit-serial decoder the package used before the
// table-driven one: one ReadBit per bit of every code. It is the
// reference DecodeInto must match value for value and error for error.
func refDecodeInto(c *Codec, r *bitstream.Reader, out []int32) error {
	for i := range out {
		var code uint64
		sym, found := int64(0), false
		for l := uint8(1); l <= c.maxLen && !found; l++ {
			b, err := r.ReadBit()
			if err != nil {
				return fmt.Errorf("%w: truncated codeword", ErrCorrupt)
			}
			code = (code << 1) | uint64(b)
			if c.countLen[l] == 0 {
				continue
			}
			if code >= c.firstCode[l] && code < c.firstCode[l]+uint64(c.countLen[l]) {
				sym, found = c.entries[c.firstIdx[l]+int(code-c.firstCode[l])].sym, true
			}
		}
		if !found {
			return fmt.Errorf("%w: invalid codeword", ErrCorrupt)
		}
		if sym == escSym {
			raw, err := r.ReadBits(32)
			if err != nil {
				return fmt.Errorf("%w: truncated escape literal", ErrCorrupt)
			}
			out[i] = int32(uint32(raw))
			continue
		}
		out[i] = int32(sym)
	}
	return nil
}

// diffReference decodes n codes from payload with DecodeInto and with
// the reference and describes the first difference: in the error, in
// the decoded values (including those written before an error) or in the
// bits left unread.
func diffReference(c *Codec, payload []byte, n int) string {
	got, want := make([]int32, n), make([]int32, n)
	rg, rw := bitstream.NewReader(payload), bitstream.NewReader(payload)
	errG, errW := c.DecodeInto(rg, got), refDecodeInto(c, rw, want)
	if fmt.Sprint(errG) != fmt.Sprint(errW) || errors.Is(errG, ErrCorrupt) != errors.Is(errW, ErrCorrupt) {
		return fmt.Sprintf("error %v, want %v", errG, errW)
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Sprintf("code %d = %d, want %d", i, got[i], want[i])
		}
	}
	if errG == nil && rg.BitsRemaining() != rw.BitsRemaining() {
		return fmt.Sprintf("%d bits left, want %d", rg.BitsRemaining(), rw.BitsRemaining())
	}
	return ""
}

// tableBytes serializes (symbol, length) pairs the way MarshalBinary
// does, so tests can build tables Build never makes.
func tableBytes(syms []int64, lengths []uint8) []byte {
	buf := binary.AppendUvarint(nil, uint64(len(syms)))
	for i, s := range syms {
		buf = binary.AppendVarint(buf, s)
		buf = append(buf, lengths[i])
	}
	return buf
}

// laplaceCodes draws n quantization-like codes, rounded Laplace(0, b).
func laplaceCodes(rng *rand.Rand, n int, b float64) []int32 {
	codes := make([]int32, n)
	for i := range codes {
		codes[i] = int32(math.Round(rng.ExpFloat64() * b * float64(1-2*rng.Intn(2))))
	}
	return codes
}

// referenceCases returns codecs with a payload each: Build tables over
// skewed, uniform and escape-heavy streams; decoded tables whose codes
// run to maxCodeLen, far past the lookup table; incomplete (Kraft < 1)
// tables; and one-entry tables.
func referenceCases(t testing.TB) (names []string, codecs []*Codec, payloads [][]byte, counts []int) {
	rng := rand.New(rand.NewSource(5))
	add := func(name string, c *Codec, codes []int32) {
		var w bitstream.Writer
		if err := c.Encode(&w, codes); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		names, codecs = append(names, name), append(codecs, c)
		payloads, counts = append(payloads, w.Bytes()), append(counts, len(codes))
	}
	build := func(name string, codes []int32, maxSymbols int) {
		c, err := Build(codes, maxSymbols)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		add(name, c, codes)
	}
	build("skewed", laplaceCodes(rng, 800, 0.4), 0)
	build("laplace", laplaceCodes(rng, 800, 40), 0)
	uniform := make([]int32, 800)
	for i := range uniform {
		uniform[i] = int32(rng.Intn(64) - 32)
	}
	build("uniform", uniform, 0)
	build("wide", laplaceCodes(rng, 800, 5000), 16)
	build("single", make([]int32, 100), 0)

	decoded := func(name string, syms []int64, lengths []uint8) {
		c, _, err := UnmarshalCodec(tableBytes(syms, lengths))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		c.buildEncoder() // a decoded table has no encode lookup of its own
		// Every symbol, then a random draw weighted toward the long codes.
		var codes []int32
		for _, s := range syms {
			if s != escSym {
				codes = append(codes, int32(s))
			}
		}
		for i := 0; i < 500; i++ {
			if s := syms[len(syms)-1-rng.Intn(min(len(syms), 8))]; s != escSym {
				codes = append(codes, int32(s))
			} else {
				codes = append(codes, int32(rng.Uint32()))
			}
		}
		add(name, c, codes)
	}
	// Lengths 1..47 plus two 48-bit codes: complete, and the escape sits
	// at 48 bits.
	var syms []int64
	var lengths []uint8
	for l := 1; l <= maxCodeLen; l++ {
		syms, lengths = append(syms, int64(l)), append(lengths, uint8(l))
	}
	decoded("long", append(syms, escSym), append(lengths, maxCodeLen))
	decoded("long-escape-short", []int64{escSym, 1, 2, 3, 4}, []uint8{2, 2, 12, 30, 48})
	decoded("incomplete", []int64{-3, 0, 9, 70000, escSym}, []uint8{1, 3, 5, 13, 20})
	decoded("incomplete-short", []int64{5, 6}, []uint8{2, 3})
	decoded("one-entry", []int64{-7}, []uint8{1})
	decoded("one-entry-long", []int64{-7}, []uint8{13})
	decoded("one-escape", []int64{escSym}, []uint8{4})
	return
}

// DecodeInto must match the bit-serial reference on every table shape,
// on every truncation of each stream and on random payloads.
func TestDecodeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	names, codecs, payloads, counts := referenceCases(t)
	for k, c := range codecs {
		p, n := payloads[k], counts[k]
		if d := diffReference(c, p, n); d != "" {
			t.Fatalf("%s: %s", names[k], d)
		}
		got, err := c.Decode(bitstream.NewReader(p), n)
		if err != nil || len(got) != n {
			t.Fatalf("%s: full stream: %v", names[k], err)
		}
		for cut := 0; cut < len(p); cut++ {
			if d := diffReference(c, p[:cut], n); d != "" {
				t.Fatalf("%s cut at %d of %d bytes: %s", names[k], cut, len(p), d)
			}
		}
		for i := 0; i < 200; i++ {
			junk := make([]byte, rng.Intn(64))
			rng.Read(junk)
			if d := diffReference(c, junk, rng.Intn(200)); d != "" {
				t.Fatalf("%s random payload %x: %s", names[k], junk, d)
			}
		}
	}
}

// A table whose header declares more entries than its bytes can hold is
// rejected before the entries are allocated: a 6-byte table declaring
// 2^24 symbols would otherwise cost 2^24 entries of 24 bytes.
func TestUnmarshalAllocationBounded(t *testing.T) {
	table := binary.AppendUvarint(nil, 1<<24)
	table = append(table, 0, 1)
	if len(table) != 6 {
		t.Fatalf("table is %d bytes, want 6", len(table))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := UnmarshalCodec(table)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("a 6-byte table allocated %d bytes", got)
	}
}

// FuzzDecode decodes a payload with a table decoded from the input and
// checks the result against the bit-serial reference.
func FuzzDecode(f *testing.F) {
	_, codecs, payloads, counts := referenceCases(f)
	for k, c := range codecs {
		table, err := c.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(table, payloads[k], uint16(counts[k]))
	}
	f.Fuzz(func(t *testing.T, table, payload []byte, count uint16) {
		c, _, err := UnmarshalCodec(table)
		if err != nil {
			return
		}
		if d := diffReference(c, payload, int(count)); d != "" {
			t.Fatal(d)
		}
	})
}

// benchCodes is one 6×64×64 chunk of rounded Laplace codes at about
// 1.5, 4.3 and 7.8 bits per code.
var benchScales = []struct {
	name  string
	scale float64
}{{"bpc1.5", 0.4}, {"bpc4.3", 3.6}, {"bpc7.8", 40}}

func benchCodec(b *testing.B, scale float64) (*Codec, []int32, []byte) {
	codes := laplaceCodes(rand.New(rand.NewSource(1)), 6*64*64, scale)
	c, err := Build(codes, 0)
	if err != nil {
		b.Fatal(err)
	}
	var w bitstream.Writer
	if err := c.Encode(&w, codes); err != nil {
		b.Fatal(err)
	}
	return c, codes, w.Bytes()
}

func BenchmarkDecode(b *testing.B) {
	for _, s := range benchScales {
		b.Run(s.name, func(b *testing.B) {
			c, codes, payload := benchCodec(b, s.scale)
			out := make([]int32, len(codes))
			b.SetBytes(int64(len(payload)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.DecodeInto(bitstream.NewReader(payload), out); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(payload)*8)/float64(len(codes)), "bits/code")
		})
	}
}

func BenchmarkEncode(b *testing.B) {
	for _, s := range benchScales {
		b.Run(s.name, func(b *testing.B) {
			c, codes, payload := benchCodec(b, s.scale)
			var w bitstream.Writer
			b.SetBytes(int64(len(payload)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.Reset()
				if err := c.Encode(&w, codes); err != nil {
					b.Fatal(err)
				}
				w.Bytes()
			}
			b.ReportMetric(float64(len(payload)*8)/float64(len(codes)), "bits/code")
		})
	}
}
