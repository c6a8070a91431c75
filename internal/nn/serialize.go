package nn

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Weight-blob format:
//
//	magic "NNW1" | uvarint numParams | per param:
//	    uvarint rank | uvarint dims... | float32 data (LE)
//
// Loading validates shapes against the receiving parameter list, so a model
// built from the wrong config fails loudly instead of silently misloading.

var weightMagic = [4]byte{'N', 'N', 'W', '1'}

// SaveParams serializes params in order.
func SaveParams(w io.Writer, params []*Param) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.Write(weightMagic[:]); err != nil {
		return fmt.Errorf("nn: save params: %w", err)
	}
	var scratch [binary.MaxVarintLen64]byte
	writeUvarint := func(v uint64) error {
		n := binary.PutUvarint(scratch[:], v)
		_, err := bw.Write(scratch[:n])
		return err
	}
	if err := writeUvarint(uint64(len(params))); err != nil {
		return fmt.Errorf("nn: save params: %w", err)
	}
	var b4 [4]byte
	for _, p := range params {
		if err := writeUvarint(uint64(p.W.Rank())); err != nil {
			return fmt.Errorf("nn: save params: %w", err)
		}
		for _, d := range p.W.Shape() {
			if err := writeUvarint(uint64(d)); err != nil {
				return fmt.Errorf("nn: save params: %w", err)
			}
		}
		for _, v := range p.W.Data() {
			binary.LittleEndian.PutUint32(b4[:], math.Float32bits(v))
			if _, err := bw.Write(b4[:]); err != nil {
				return fmt.Errorf("nn: save params: %w", err)
			}
		}
	}
	return bw.Flush()
}

// byteReader is what LoadParams reads: a reader with ReadByte for the
// uvarints.
type byteReader interface {
	io.Reader
	io.ByteReader
}

// LoadParams fills params (shape-checked) from a stream written by
// SaveParams. A reader that already reads bytes (a bytes.Reader, say) is
// read directly; any other is buffered.
func LoadParams(r io.Reader, params []*Param) error {
	br, ok := r.(byteReader)
	if !ok {
		br = bufio.NewReader(r)
	}
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return fmt.Errorf("nn: load params: %w", err)
	}
	if magic != weightMagic {
		return fmt.Errorf("nn: load params: bad magic %q", magic[:])
	}
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return fmt.Errorf("nn: load params: %w", err)
	}
	if int(n) != len(params) {
		return fmt.Errorf("nn: load params: stream has %d params, model expects %d", n, len(params))
	}
	var b4 [4]byte
	for pi, p := range params {
		rank, err := binary.ReadUvarint(br)
		if err != nil {
			return fmt.Errorf("nn: load param %d: %w", pi, err)
		}
		if int(rank) != p.W.Rank() {
			return fmt.Errorf("nn: load param %d (%s): rank %d != %d", pi, p.Name, rank, p.W.Rank())
		}
		for ax := 0; ax < int(rank); ax++ {
			d, err := binary.ReadUvarint(br)
			if err != nil {
				return fmt.Errorf("nn: load param %d: %w", pi, err)
			}
			if int(d) != p.W.Dim(ax) {
				return fmt.Errorf("nn: load param %d (%s): dim %d is %d, want %d", pi, p.Name, ax, d, p.W.Dim(ax))
			}
		}
		data := p.W.Data()
		for i := range data {
			if _, err := io.ReadFull(br, b4[:]); err != nil {
				return fmt.Errorf("nn: load param %d data: %w", pi, err)
			}
			data[i] = math.Float32frombits(binary.LittleEndian.Uint32(b4[:]))
		}
	}
	return nil
}

// ParamBytes returns the serialized size of the parameter list — the model
// storage charged against the compressed stream, as in the paper's
// accounting.
func ParamBytes(params []*Param) int {
	n := 4 // magic
	n += uvarintLen(uint64(len(params)))
	for _, p := range params {
		n += uvarintLen(uint64(p.W.Rank()))
		for _, d := range p.W.Shape() {
			n += uvarintLen(uint64(d))
		}
		n += 4 * p.W.Len()
	}
	return n
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}
