package bitstream

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWriteReadKnownPattern(t *testing.T) {
	var w Writer
	w.WriteBits(0b101, 3)
	w.WriteBits(0b1, 1)
	w.WriteBits(0xFF, 8)
	w.WriteBits(0, 4)
	data := w.Bytes()
	if len(data) != 2 {
		t.Fatalf("len = %d, want 2", len(data))
	}
	r := NewReader(data)
	got, err := r.ReadBits(3)
	if err != nil || got != 0b101 {
		t.Fatalf("read 3 bits = %b, err %v", got, err)
	}
	got, err = r.ReadBits(1)
	if err != nil || got != 1 {
		t.Fatalf("read 1 bit = %b, err %v", got, err)
	}
	got, err = r.ReadBits(8)
	if err != nil || got != 0xFF {
		t.Fatalf("read 8 bits = %x, err %v", got, err)
	}
	got, err = r.ReadBits(4)
	if err != nil || got != 0 {
		t.Fatalf("read 4 bits = %x, err %v", got, err)
	}
}

func TestMSBFirstLayout(t *testing.T) {
	var w Writer
	w.WriteBits(1, 1) // single 1 bit => first byte should be 0x80
	data := w.Bytes()
	if data[0] != 0x80 {
		t.Fatalf("MSB-first violated: byte = %x", data[0])
	}
}

func TestWriteBitAndReadBit(t *testing.T) {
	var w Writer
	bits := []uint{1, 0, 1, 1, 0, 0, 1, 0, 1}
	for _, b := range bits {
		w.WriteBit(b)
	}
	r := NewReader(w.Bytes())
	for i, want := range bits {
		got, err := r.ReadBit()
		if err != nil || got != want {
			t.Fatalf("bit %d = %d, want %d (err %v)", i, got, want, err)
		}
	}
}

func TestOverrun(t *testing.T) {
	r := NewReader([]byte{0xAB})
	if _, err := r.ReadBits(8); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadBits(1); !errors.Is(err, ErrOverrun) {
		t.Fatalf("err = %v, want ErrOverrun", err)
	}
}

func TestReadBitsTooMany(t *testing.T) {
	r := NewReader(make([]byte, 16))
	if _, err := r.ReadBits(58); err == nil {
		t.Fatal("expected error for n > 57")
	}
}

func TestWriteBitsPanicsOver64(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	var w Writer
	w.WriteBits(0, 65)
}

func TestBitLenAndReset(t *testing.T) {
	var w Writer
	w.WriteBits(0b11, 2)
	if w.BitLen() != 2 {
		t.Fatalf("bitlen = %d", w.BitLen())
	}
	w.WriteBits(0, 14)
	if w.BitLen() != 16 {
		t.Fatalf("bitlen = %d", w.BitLen())
	}
	w.Reset()
	if w.BitLen() != 0 || len(w.Bytes()) != 0 {
		t.Fatal("reset failed")
	}
}

func TestPeekAndSkip(t *testing.T) {
	var w Writer
	w.WriteBits(0b1011001110001111, 16)
	r := NewReader(w.Bytes())
	v, got := r.PeekBits(4)
	if got != 4 || v != 0b1011 {
		t.Fatalf("peek = %b (%d bits)", v, got)
	}
	// Peek must not consume.
	v2, _ := r.PeekBits(4)
	if v2 != v {
		t.Fatal("peek consumed bits")
	}
	if err := r.Skip(4); err != nil {
		t.Fatal(err)
	}
	rv, err := r.ReadBits(4)
	if err != nil || rv != 0b0011 {
		t.Fatalf("after skip: %b", rv)
	}
}

func TestPeekPastEndZeroPads(t *testing.T) {
	var w Writer
	w.WriteBits(0b1, 1)
	r := NewReader(w.Bytes()) // one byte: 0x80
	if err := r.Skip(8); err != nil {
		t.Fatal(err)
	}
	v, got := r.PeekBits(8)
	if got != 0 || v != 0 {
		t.Fatalf("peek past end = %b (%d bits)", v, got)
	}
}

func TestBitsRemaining(t *testing.T) {
	r := NewReader([]byte{1, 2, 3})
	if r.BitsRemaining() != 24 {
		t.Fatalf("remaining = %d", r.BitsRemaining())
	}
	_, _ = r.ReadBits(5)
	if r.BitsRemaining() != 19 {
		t.Fatalf("remaining = %d", r.BitsRemaining())
	}
}

// Property: arbitrary sequences of (value, width) round-trip exactly.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		type item struct {
			v uint64
			n uint
		}
		items := make([]item, 200)
		var w Writer
		for i := range items {
			n := uint(rng.Intn(57) + 1)
			v := rng.Uint64() & ((1 << n) - 1)
			items[i] = item{v, n}
			w.WriteBits(v, n)
		}
		r := NewReader(w.Bytes())
		for _, it := range items {
			got, err := r.ReadBits(it.n)
			if err != nil || got != it.v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestWriteZeroBitsNoop(t *testing.T) {
	var w Writer
	w.WriteBits(123, 0)
	if w.BitLen() != 0 {
		t.Fatal("zero-width write changed state")
	}
}

// refWriter is the byte-at-a-time writer the package used before the
// word-wide one, kept as the reference for its output.
type refWriter struct {
	buf  []byte
	cur  uint64
	nbit uint
}

func (w *refWriter) WriteBits(v uint64, n uint) {
	if n == 0 {
		return
	}
	if n < 64 {
		v &= (1 << n) - 1
	}
	for n > 0 {
		take := 8 - w.nbit
		if take > n {
			take = n
		}
		chunk := (v >> (n - take)) & ((1 << take) - 1)
		w.cur = (w.cur << take) | chunk
		w.nbit += take
		n -= take
		if w.nbit == 8 {
			w.buf = append(w.buf, byte(w.cur))
			w.cur, w.nbit = 0, 0
		}
	}
}

func (w *refWriter) Bytes() []byte {
	if w.nbit > 0 {
		w.buf = append(w.buf, byte(w.cur<<(8-w.nbit)))
		w.cur, w.nbit = 0, 0
	}
	return w.buf
}

func (w *refWriter) BitLen() int { return len(w.buf)*8 + int(w.nbit) }

func (w *refWriter) Reset() { w.buf, w.cur, w.nbit = w.buf[:0], 0, 0 }

// refReader is the byte-at-a-time reader the package used before the
// word-refilled one, kept as the reference for its results.
type refReader struct {
	buf  []byte
	pos  int
	cur  uint64
	nbit uint
}

func (r *refReader) ReadBits(n uint) (uint64, error) {
	if n > 57 {
		return 0, errors.New("n > 57")
	}
	for r.nbit < n {
		if r.pos >= len(r.buf) {
			return 0, ErrOverrun
		}
		r.cur = (r.cur << 8) | uint64(r.buf[r.pos])
		r.pos++
		r.nbit += 8
	}
	v := (r.cur >> (r.nbit - n)) & ((1 << n) - 1)
	r.nbit -= n
	return v, nil
}

func (r *refReader) PeekBits(n uint) (v uint64, got uint) {
	if n > 57 {
		n = 57
	}
	for r.nbit < n && r.pos < len(r.buf) {
		r.cur = (r.cur << 8) | uint64(r.buf[r.pos])
		r.pos++
		r.nbit += 8
	}
	got = n
	if r.nbit < n {
		got = r.nbit
		return (r.cur & ((1 << r.nbit) - 1)) << (n - r.nbit), got
	}
	return (r.cur >> (r.nbit - n)) & ((1 << n) - 1), got
}

func (r *refReader) BitsRemaining() int { return (len(r.buf)-r.pos)*8 + int(r.nbit) }

// The word-wide writer must emit the reference writer's bytes for any
// mix of widths 0..64, with Bytes, Reset and BitLen interleaved.
func TestWriterMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 200; round++ {
		var w Writer
		var ref refWriter
		for op := 0; op < 300; op++ {
			switch k := rng.Intn(40); {
			case k == 0:
				if got, want := w.Bytes(), ref.Bytes(); !bytes.Equal(got, want) {
					t.Fatalf("round %d op %d: Bytes %x, want %x", round, op, got, want)
				}
			case k == 1:
				w.Reset()
				ref.Reset()
			case k == 2:
				b := uint(rng.Intn(2))
				w.WriteBit(b)
				ref.WriteBits(uint64(b), 1)
			default:
				n := uint(rng.Intn(65))
				v := rng.Uint64()
				w.WriteBits(v, n)
				ref.WriteBits(v, n)
			}
			if w.BitLen() != ref.BitLen() {
				t.Fatalf("round %d op %d: BitLen %d, want %d", round, op, w.BitLen(), ref.BitLen())
			}
		}
		if got, want := w.Bytes(), ref.Bytes(); !bytes.Equal(got, want) {
			t.Fatalf("round %d: final Bytes %x, want %x", round, got, want)
		}
	}
}

// Mixed ReadBits/ReadBit/PeekBits/Skip sequences must match the
// reference reader value for value, error for error and in
// BitsRemaining, across word refills, the byte-wise tail (the last 8
// bytes) and past the end of the buffer.
func TestReaderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for round := 0; round < 2000; round++ {
		data := make([]byte, rng.Intn(40))
		rng.Read(data)
		r := NewReader(data)
		ref := &refReader{buf: data}
		for op := 0; op < 60; op++ {
			n := uint(rng.Intn(66))
			if rng.Intn(2) == 0 {
				n = uint(rng.Intn(14)) // code-sized steps
			}
			var what string
			var got, want uint64
			var gotErr, wantErr error
			switch rng.Intn(4) {
			case 0:
				what = "ReadBits"
				got, gotErr = r.ReadBits(n)
				want, wantErr = ref.ReadBits(n)
			case 1:
				what = "ReadBit"
				var g uint
				g, gotErr = r.ReadBit()
				got = uint64(g)
				want, wantErr = ref.ReadBits(1)
			case 2:
				what = "PeekBits"
				var gn, wn uint
				got, gn = r.PeekBits(n)
				want, wn = ref.PeekBits(n)
				if gn != wn {
					t.Fatalf("round %d op %d: PeekBits(%d) got %d real bits, want %d", round, op, n, gn, wn)
				}
			default:
				what = "Skip"
				gotErr = r.Skip(n)
				_, wantErr = ref.ReadBits(n)
			}
			if got != want || (gotErr == nil) != (wantErr == nil) || errors.Is(gotErr, ErrOverrun) != errors.Is(wantErr, ErrOverrun) {
				t.Fatalf("round %d op %d: %s(%d) = %x, %v; want %x, %v", round, op, what, n, got, gotErr, want, wantErr)
			}
			if r.BitsRemaining() != ref.BitsRemaining() {
				t.Fatalf("round %d op %d: %s(%d) left %d bits, want %d", round, op, what, n, r.BitsRemaining(), ref.BitsRemaining())
			}
		}
	}
}
