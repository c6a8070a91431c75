// Package bitstream provides MSB-first bit-level writers and readers for
// the entropy-coded payloads produced by internal/huffman.
//
// Both sides work a machine word at a time. The Writer gathers bits in a
// 64-bit accumulator and appends them 4 bytes at a time; the Reader
// refills its 64-bit window with one big-endian 8-byte load while at
// least 8 bytes remain, and byte by byte over the tail. PeekBits plus
// Skip is therefore a shift and a subtraction on the common path, which
// is what the table-driven Huffman decoder relies on. The byte layout is
// the plain MSB-first one: the first bit written is the top bit of the
// first byte, and the last byte is zero-padded on the right.
package bitstream

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrOverrun is returned when reading past the end of the stream.
var ErrOverrun = errors.New("bitstream: read past end")

// Writer accumulates bits MSB-first into a byte slice.
// The zero value is ready to use.
type Writer struct {
	buf  []byte
	cur  uint64 // pending bits, right-aligned in the low nbit bits
	nbit uint   // number of pending bits (< 32 between calls)
}

// WriteBits appends the low n bits of v, most significant first.
// n must be in [0, 64].
func (w *Writer) WriteBits(v uint64, n uint) {
	if n > 64 {
		panic(fmt.Sprintf("bitstream: WriteBits n=%d > 64", n))
	}
	if n > 32 {
		// Two halves keep nbit+n <= 63, so the accumulator never drops
		// a pending bit.
		w.put(v>>32, n-32)
		n = 32
	}
	w.put(v, n)
}

// put appends the low n <= 32 bits of v and flushes a whole 32-bit word
// once one is pending.
func (w *Writer) put(v uint64, n uint) {
	w.cur = w.cur<<n | v&(1<<n-1)
	w.nbit += n
	if w.nbit >= 32 {
		w.nbit -= 32
		w.buf = binary.BigEndian.AppendUint32(w.buf, uint32(w.cur>>w.nbit))
	}
}

// WriteBit appends a single bit (any nonzero v writes 1).
func (w *Writer) WriteBit(v uint) {
	if v != 0 {
		w.put(1, 1)
	} else {
		w.put(0, 1)
	}
}

// Bytes flushes the pending whole bytes and then any partial byte
// (zero-padded on the right) and returns the encoded stream. The writer
// can keep being used afterwards only if the bit count was a multiple
// of 8; callers normally finish with Bytes.
func (w *Writer) Bytes() []byte {
	for w.nbit >= 8 {
		w.nbit -= 8
		w.buf = append(w.buf, byte(w.cur>>w.nbit))
	}
	if w.nbit > 0 {
		w.buf = append(w.buf, byte(w.cur<<(8-w.nbit)))
	}
	w.cur, w.nbit = 0, 0
	return w.buf
}

// BitLen returns the number of bits written so far.
func (w *Writer) BitLen() int { return len(w.buf)*8 + int(w.nbit) }

// Reset clears the writer for reuse.
func (w *Writer) Reset() { w.buf, w.cur, w.nbit = w.buf[:0], 0, 0 }

// Reader consumes bits MSB-first from a byte slice.
type Reader struct {
	buf []byte
	pos int // next byte index not yet counted in nbit
	// cur holds the next nbit unread bits left-aligned. The bits below
	// them are either zero or the stream's own next bits (a word refill
	// loads more bytes than it counts), so refilling ORs over them
	// without changing anything.
	cur  uint64
	nbit uint
}

// NewReader wraps data (not copied).
func NewReader(data []byte) *Reader { return &Reader{buf: data} }

// refill tops the window up to at least 57 bits, or to every bit left.
// Callers refill only a window that is short of a request of at most 57
// bits, so nbit <= 56 here.
func (r *Reader) refill() {
	if r.pos+8 <= len(r.buf) {
		r.cur |= binary.BigEndian.Uint64(r.buf[r.pos:]) >> r.nbit
		k := (63 - r.nbit) >> 3
		r.pos += int(k)
		r.nbit += k << 3
	}
	for r.nbit <= 56 && r.pos < len(r.buf) {
		r.cur |= uint64(r.buf[r.pos]) << (56 - r.nbit)
		r.pos++
		r.nbit += 8
	}
}

// ReadBits reads n bits (n in [0,57]) and returns them right-aligned.
func (r *Reader) ReadBits(n uint) (uint64, error) {
	if n > 57 {
		return 0, fmt.Errorf("bitstream: ReadBits n=%d > 57", n)
	}
	if r.nbit < n {
		r.refill()
		if r.nbit < n {
			return 0, ErrOverrun
		}
	}
	v := r.cur >> (64 - n)
	r.cur <<= n
	r.nbit -= n
	return v, nil
}

// ReadBit reads a single bit.
func (r *Reader) ReadBit() (uint, error) {
	if r.nbit == 0 {
		r.refill()
		if r.nbit == 0 {
			return 0, ErrOverrun
		}
	}
	v := uint(r.cur >> 63)
	r.cur <<= 1
	r.nbit--
	return v, nil
}

// PeekBits returns up to n bits without consuming them. If fewer bits
// remain, the result is zero-padded on the right; got reports how many real
// bits were available (<= n). n above 57 peeks 57 bits.
func (r *Reader) PeekBits(n uint) (v uint64, got uint) {
	n = min(n, 57)
	if n > r.nbit {
		r.refillSlow()
	}
	// A window still short of n holds the stream's last bits, so the
	// bits below them are zero: the shift alone pads.
	return r.cur >> (64 - n), min(n, r.nbit)
}

// refillSlow is refill kept out of line, so PeekBits stays small enough
// to inline into decode loops.
//
//go:noinline
func (r *Reader) refillSlow() { r.refill() }

// Skip consumes n bits previously peeked. It returns ErrOverrun if fewer
// bits are buffered or available.
func (r *Reader) Skip(n uint) error {
	if n > min(r.nbit, 57) {
		return r.skipSlow(n)
	}
	r.cur <<= n
	r.nbit -= n
	return nil
}

//go:noinline
func (r *Reader) skipSlow(n uint) error {
	_, err := r.ReadBits(n)
	return err
}

// BitsRemaining reports how many unread bits remain (including buffered
// ones).
func (r *Reader) BitsRemaining() int {
	return (len(r.buf)-r.pos)*8 + int(r.nbit)
}
