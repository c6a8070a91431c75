// Package huffman implements the customized canonical Huffman coder that
// prediction-based compressors (SZ-family) apply to quantization codes.
//
// The alphabet is built from the histogram of postquantization codes; rare
// codes beyond a configurable alphabet cap are routed through an escape
// symbol followed by the raw 32-bit value, mirroring SZ's "unpredictable
// data" path. Code tables are serialized canonically (symbol, bit-length)
// so the decoder reconstructs identical codes.
//
// Decoding is table-driven: every codec carries a primary lookup table
// indexed by the next min(maxLen, 11) bits of the stream, so a code that
// fits the table costs one peek, one load and one skip. Codes longer than
// the table, and invalid or truncated input, fall back to the canonical
// walk, which reads one bit at a time and reports ErrCorrupt exactly where
// a bit-serial decoder would.
package huffman

import (
	"cmp"
	"container/heap"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/bitstream"
)

// escSym is the internal symbol value for the escape code. Real symbols are
// int32 quantization codes widened to int64, so this cannot collide.
const escSym = int64(math.MaxInt64)

// maxCodeLen is bounded by the bitstream reader's 57-bit peek window.
const maxCodeLen = 48

// maxLUTBits caps the primary decode table at 2^11 uint32 entries (8 KiB).
// Quantization-code streams run about 1.5–8 bits per code, so nearly
// every code resolves in one lookup.
const maxLUTBits = 11

// denseWorthIt decides whether a span-indexed dense table beats a hash
// map for n occupied symbols spread over the given span: the span must be
// bounded absolutely and must not dwarf the occupancy (a sparse alphabet
// over a wide range would pay a huge table for nothing). The same
// heuristic shape is used by metrics.CodeEntropy.
func denseWorthIt(span int64, n int) bool {
	return span >= 0 && span < 1<<21 && span <= 8*int64(n)+1024
}

// DefaultMaxSymbols caps the alphabet like SZ's default quantization-bin
// capacity: the 65536 most frequent codes keep dedicated codewords.
const DefaultMaxSymbols = 65536

// ErrCorrupt reports malformed serialized tables or payloads.
var ErrCorrupt = errors.New("huffman: corrupt data")

type entry struct {
	sym    int64
	length uint8
	code   uint64 // canonical code, MSB-aligned to `length` bits
}

// Codec is an immutable canonical Huffman code for one field's quantization
// codes.
type Codec struct {
	entries []entry // canonical order: (length, sym) ascending
	esc     entry   // the escape code; length 0 when the table has none
	// Encode lookup, built by Build only (see buildEncoder): a dense
	// table for small symbol spans, else a map. A codec decoded from a
	// table has neither and cannot encode.
	dense    []entry
	denseMin int64
	encode   map[int64]entry
	// Canonical decode tables indexed by length.
	firstCode [maxCodeLen + 1]uint64
	firstIdx  [maxCodeLen + 1]int
	countLen  [maxCodeLen + 1]int
	minLen    uint8
	maxLen    uint8
	// Primary decode table over the next lutBits bits: entry index<<8 |
	// code length for every code of at most lutBits bits, 0 where the
	// code is longer than the table or the prefix is invalid.
	lut     []uint32
	lutBits uint
}

// Build constructs a codec from the code stream's histogram. maxSymbols
// caps the alphabet (<=0 means DefaultMaxSymbols); excess codes use the
// escape path.
func Build(codes []int32, maxSymbols int) (*Codec, error) {
	if maxSymbols <= 0 {
		maxSymbols = DefaultMaxSymbols
	}
	type sc struct {
		sym   int32
		count int64
	}
	var items []sc
	// Histogram: quantization codes cluster tightly around zero, so a
	// dense array beats a hash map by an order of magnitude; the map is
	// kept for pathological spreads. Either path feeds the same
	// deterministic sort, so the resulting table is identical.
	mn, mx := int32(0), int32(0)
	for i, c := range codes {
		if i == 0 || c < mn {
			mn = c
		}
		if i == 0 || c > mx {
			mx = c
		}
	}
	if len(codes) > 0 && denseWorthIt(int64(mx)-int64(mn), len(codes)) {
		counts := make([]int64, int64(mx)-int64(mn)+1)
		for _, c := range codes {
			counts[c-mn]++
		}
		for s, c := range counts {
			if c > 0 {
				items = append(items, sc{mn + int32(s), c})
			}
		}
	} else {
		hist := make(map[int32]int64, 1024)
		for _, c := range codes {
			hist[c]++
		}
		items = make([]sc, 0, len(hist))
		for s, c := range hist {
			items = append(items, sc{s, c})
		}
	}
	// Most frequent first; ties by symbol for determinism.
	sort.Slice(items, func(i, j int) bool {
		if items[i].count != items[j].count {
			return items[i].count > items[j].count
		}
		return items[i].sym < items[j].sym
	})
	kept := items
	var escCount int64
	if len(items) > maxSymbols-1 {
		kept = items[:maxSymbols-1]
		for _, it := range items[maxSymbols-1:] {
			escCount += it.count
		}
	}
	syms := make([]int64, 0, len(kept)+1)
	counts := make([]int64, 0, len(kept)+1)
	for _, it := range kept {
		syms = append(syms, int64(it.sym))
		counts = append(counts, it.count)
	}
	// Always include the escape symbol so that decode-time surprises
	// (codes outside the build sample) remain encodable.
	if escCount == 0 {
		escCount = 1
	}
	syms = append(syms, escSym)
	counts = append(counts, escCount)
	lengths, err := buildLengths(counts)
	if err != nil {
		return nil, err
	}
	entries := make([]entry, len(syms))
	for i := range syms {
		entries[i] = entry{sym: syms[i], length: lengths[i]}
	}
	c, err := newCanonical(entries)
	if err != nil {
		return nil, err
	}
	// Only freshly-built codecs are about to encode; table decodes
	// (UnmarshalCodec) skip the encode lookup entirely.
	c.buildEncoder()
	return c, nil
}

// buildLengths runs standard Huffman construction over the counts and
// returns per-symbol code lengths, flattening the histogram as needed to
// respect maxCodeLen.
func buildLengths(counts []int64) ([]uint8, error) {
	if len(counts) == 0 {
		return nil, fmt.Errorf("huffman: empty alphabet")
	}
	if len(counts) == 1 {
		return []uint8{1}, nil
	}
	local := append([]int64(nil), counts...)
	for {
		lengths := huffmanLengths(local)
		maxL := uint8(0)
		for _, l := range lengths {
			if l > maxL {
				maxL = l
			}
		}
		if maxL <= maxCodeLen {
			return lengths, nil
		}
		// Flatten and retry; converges to uniform counts (balanced tree).
		for i := range local {
			local[i] = (local[i] + 1) / 2
		}
	}
}

type hnode struct {
	count       int64
	order       int // tie-break for determinism
	left, right *hnode
	leaf        int // symbol index, -1 for internal
}

type hheap []*hnode

func (h hheap) Len() int { return len(h) }
func (h hheap) Less(i, j int) bool {
	if h[i].count != h[j].count {
		return h[i].count < h[j].count
	}
	return h[i].order < h[j].order
}
func (h hheap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *hheap) Push(x any)   { *h = append(*h, x.(*hnode)) }
func (h *hheap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

func huffmanLengths(counts []int64) []uint8 {
	h := make(hheap, 0, len(counts))
	order := 0
	for i, c := range counts {
		if c <= 0 {
			c = 1
		}
		h = append(h, &hnode{count: c, order: order, leaf: i})
		order++
	}
	heap.Init(&h)
	for h.Len() > 1 {
		a := heap.Pop(&h).(*hnode)
		b := heap.Pop(&h).(*hnode)
		heap.Push(&h, &hnode{count: a.count + b.count, order: order, left: a, right: b, leaf: -1})
		order++
	}
	root := h[0]
	lengths := make([]uint8, len(counts))
	var walk func(n *hnode, depth uint8)
	walk = func(n *hnode, depth uint8) {
		if n.leaf >= 0 {
			if depth == 0 {
				depth = 1 // single-symbol tree
			}
			lengths[n.leaf] = depth
			return
		}
		walk(n.left, depth+1)
		walk(n.right, depth+1)
	}
	walk(root, 0)
	return lengths
}

// newCanonical assigns canonical codes given (sym, length) entries with
// distinct symbols and builds the decode tables.
func newCanonical(entries []entry) (*Codec, error) {
	slices.SortFunc(entries, func(a, b entry) int {
		if a.length != b.length {
			return cmp.Compare(a.length, b.length)
		}
		return cmp.Compare(a.sym, b.sym)
	})
	c := &Codec{entries: entries}
	var code uint64
	var prevLen uint8
	for i := range entries {
		e := &entries[i]
		if e.length == 0 || e.length > maxCodeLen {
			return nil, fmt.Errorf("%w: bad code length %d", ErrCorrupt, e.length)
		}
		code <<= (e.length - prevLen)
		e.code = code
		code++
		prevLen = e.length
		if e.sym == escSym {
			c.esc = *e
		}
	}
	// Kraft check: the last code must fit in its length.
	if prevLen > 0 && code > (1<<prevLen) {
		return nil, fmt.Errorf("%w: over-subscribed code (Kraft violation)", ErrCorrupt)
	}
	// Decode tables.
	c.minLen, c.maxLen = entries[0].length, entries[len(entries)-1].length
	idx := 0
	for l := uint8(1); l <= maxCodeLen; l++ {
		c.firstIdx[l] = idx
		cnt := 0
		var first uint64
		firstSet := false
		for idx < len(entries) && entries[idx].length == l {
			if !firstSet {
				first = entries[idx].code
				firstSet = true
			}
			cnt++
			idx++
		}
		c.firstCode[l] = first
		c.countLen[l] = cnt
	}
	c.buildLUT()
	return c, nil
}

// buildLUT fills the primary decode table. Each code of length l <=
// lutBits owns the 2^(lutBits-l) slots its bits prefix; the canonical
// codes are prefix-free (newCanonical's Kraft check), so no two codes
// claim a slot.
func (c *Codec) buildLUT() {
	c.lutBits = uint(min(c.maxLen, maxLUTBits))
	c.lut = make([]uint32, 1<<c.lutBits)
	for i, e := range c.entries {
		l := uint(e.length)
		if l > c.lutBits {
			break // canonical order: every later code is longer still
		}
		lo := e.code << (c.lutBits - l)
		span := uint64(1) << (c.lutBits - l)
		v := uint32(i)<<8 | uint32(l)
		for j := lo; j < lo+span; j++ {
			c.lut[j] = v
		}
	}
}

// NumSymbols returns the alphabet size including the escape symbol.
func (c *Codec) NumSymbols() int { return len(c.entries) }

// MaxLength returns the longest codeword in bits.
func (c *Codec) MaxLength() int { return int(c.maxLen) }

// buildEncoder constructs the symbol→code lookup Encode needs: a flat
// table when the alphabet's symbol span is small (the normal case for
// quantization codes, which cluster around zero), with length 0 marking
// symbols outside the alphabet, and a map otherwise. Both give identical
// output; the table is purely a lookup-cost optimization.
func (c *Codec) buildEncoder() {
	mn, mx := int64(math.MaxInt64), int64(math.MinInt64)
	n := 0
	for _, e := range c.entries {
		if e.sym == escSym {
			continue
		}
		if e.sym < mn {
			mn = e.sym
		}
		if e.sym > mx {
			mx = e.sym
		}
		n++
	}
	// The span must be computed overflow-safely before sizing anything,
	// and a sparse alphabet spread over a wide span takes the map.
	if span := uint64(mx) - uint64(mn); n == 0 || span > 1<<62 || !denseWorthIt(int64(span), n) {
		c.encode = make(map[int64]entry, n)
		for _, e := range c.entries {
			if e.sym != escSym {
				c.encode[e.sym] = e
			}
		}
		return
	}
	c.denseMin = mn
	c.dense = make([]entry, mx-mn+1)
	for _, e := range c.entries {
		if e.sym != escSym {
			c.dense[e.sym-mn] = e
		}
	}
}

// Encode appends the bitstream encoding of codes to w. Codes absent from
// the alphabet use the escape path (escape codeword + 32 raw bits). Only
// a codec from Build encodes; one decoded from a table returns an error.
func (c *Codec) Encode(w *bitstream.Writer, codes []int32) error {
	if c.dense == nil && c.encode == nil {
		return errors.New("huffman: a codec decoded from a table cannot encode")
	}
	esc, hasEsc := c.esc, c.esc.length > 0
	if c.dense != nil {
		mn := c.denseMin
		span := int64(len(c.dense))
		for _, v := range codes {
			if s := int64(v) - mn; s >= 0 && s < span {
				if e := c.dense[s]; e.length > 0 {
					w.WriteBits(e.code, uint(e.length))
					continue
				}
			}
			if !hasEsc {
				return fmt.Errorf("huffman: code %d not in alphabet and no escape", v)
			}
			w.WriteBits(esc.code, uint(esc.length))
			w.WriteBits(uint64(uint32(v)), 32)
		}
		return nil
	}
	for _, v := range codes {
		if e, ok := c.encode[int64(v)]; ok {
			w.WriteBits(e.code, uint(e.length))
			continue
		}
		if !hasEsc {
			return fmt.Errorf("huffman: code %d not in alphabet and no escape", v)
		}
		w.WriteBits(esc.code, uint(esc.length))
		w.WriteBits(uint64(uint32(v)), 32)
	}
	return nil
}

// Decode reads n codes from r.
func (c *Codec) Decode(r *bitstream.Reader, n int) ([]int32, error) {
	out := make([]int32, n)
	if err := c.DecodeInto(r, out); err != nil {
		return nil, err
	}
	return out, nil
}

// DecodeInto reads len(out) codes from r into out, letting callers that
// decode many segments (the block-parallel payload path) reuse one scratch
// buffer per worker. A Codec is immutable after construction, so
// concurrent DecodeInto calls with distinct readers and buffers are safe.
func (c *Codec) DecodeInto(r *bitstream.Reader, out []int32) error {
	lut, bits := c.lut, c.lutBits
	for i := range out {
		// A code found in the table is consumed only if all of its bits
		// are real; one that runs into the zero padding past the end,
		// like a prefix the table does not hold, takes the walk, which
		// fails on the same bit a bit-serial decoder would.
		var sym int64
		v, got := r.PeekBits(bits)
		if e := lut[v]; e != 0 && uint(e&0xff) <= got {
			_ = r.Skip(uint(e & 0xff))
			sym = c.entries[e>>8].sym
		} else {
			var err error
			if sym, err = c.decodeWalk(r); err != nil {
				return err
			}
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

// decodeWalk decodes one code by the canonical walk, one bit per step.
func (c *Codec) decodeWalk(r *bitstream.Reader) (int64, error) {
	var code uint64
	for l := uint8(1); l <= c.maxLen; l++ {
		b, err := r.ReadBit()
		if err != nil {
			return 0, fmt.Errorf("%w: truncated codeword", ErrCorrupt)
		}
		code = (code << 1) | uint64(b)
		if c.countLen[l] == 0 {
			continue
		}
		if code >= c.firstCode[l] && code < c.firstCode[l]+uint64(c.countLen[l]) {
			return c.entries[c.firstIdx[l]+int(code-c.firstCode[l])].sym, nil
		}
	}
	return 0, fmt.Errorf("%w: invalid codeword", ErrCorrupt)
}

// MarshalBinary serializes the canonical table: varint symbol count, then
// per entry a zigzag-varint symbol and a length byte.
func (c *Codec) MarshalBinary() ([]byte, error) {
	buf := make([]byte, 0, len(c.entries)*3+10)
	buf = binary.AppendUvarint(buf, uint64(len(c.entries)))
	for _, e := range c.entries {
		buf = binary.AppendVarint(buf, e.sym)
		buf = append(buf, e.length)
	}
	return buf, nil
}

// UnmarshalCodec parses a table serialized by MarshalBinary and returns the
// codec plus the number of bytes consumed.
func UnmarshalCodec(data []byte) (*Codec, int, error) {
	n, k := binary.Uvarint(data)
	if k <= 0 {
		return nil, 0, fmt.Errorf("%w: table header", ErrCorrupt)
	}
	// Every entry takes at least two bytes (a varint symbol and a length
	// byte), so the bytes left bound the alphabet before it is allocated.
	if n == 0 || n > 1<<24 || n > uint64(len(data)-k)/2 {
		return nil, 0, fmt.Errorf("%w: absurd alphabet size %d", ErrCorrupt, n)
	}
	off := k
	entries := make([]entry, n)
	for i := range entries {
		sym, k := binary.Varint(data[off:])
		if k <= 0 {
			return nil, 0, fmt.Errorf("%w: table symbol %d", ErrCorrupt, i)
		}
		off += k
		if off >= len(data)+1 && i < len(entries) {
			return nil, 0, fmt.Errorf("%w: truncated table", ErrCorrupt)
		}
		if off >= len(data) {
			return nil, 0, fmt.Errorf("%w: truncated table length", ErrCorrupt)
		}
		entries[i] = entry{sym: sym, length: data[off]}
		off++
	}
	// Sorted, a repeated symbol sits next to its first copy.
	syms := make([]int64, len(entries))
	for i, e := range entries {
		syms[i] = e.sym
	}
	slices.Sort(syms)
	for i := 1; i < len(syms); i++ {
		if syms[i] == syms[i-1] {
			return nil, 0, fmt.Errorf("%w: duplicate symbol %d", ErrCorrupt, syms[i])
		}
	}
	c, err := newCanonical(entries)
	if err != nil {
		return nil, 0, err
	}
	return c, off, nil
}
