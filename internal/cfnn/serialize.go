package cfnn

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/nn"
)

// Model-blob format:
//
//	magic "CFN1"
//	uvarint: spatialRank, numAnchors, features, kernel, reduction
//	byte: trained flag
//	float32[inC]  inOff  | float32[inC]  inScale
//	float32[outC] outOff | float32[outC] outScale
//	nn weight blob (see internal/nn serialize.go)
//
// The blob's size is the "model storage" charged against the compressed
// stream in Table II's accounting.

var modelMagic = [4]byte{'C', 'F', 'N', '1'}

// Clone returns an independent copy of the model sharing no mutable state
// (a Save/Load round-trip in memory). Inference never mutates a model, so
// concurrent PredictDiffsWith calls need only one arena each, not a clone;
// Train mutates it, so a model is trained by one goroutine, with no
// inference running on it at the time.
func (m *Model) Clone() (*Model, error) {
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		return nil, err
	}
	return Load(buf.Bytes())
}

// Save serializes the model (architecture, normalization, weights).
func (m *Model) Save(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.Write(modelMagic[:]); err != nil {
		return fmt.Errorf("cfnn: save: %w", err)
	}
	var scratch [binary.MaxVarintLen64]byte
	wr := func(v uint64) error {
		n := binary.PutUvarint(scratch[:], v)
		_, err := bw.Write(scratch[:n])
		return err
	}
	for _, v := range []int{m.Cfg.SpatialRank, m.Cfg.NumAnchors, m.Cfg.Features, m.Cfg.Kernel, m.Cfg.Reduction} {
		if err := wr(uint64(v)); err != nil {
			return fmt.Errorf("cfnn: save: %w", err)
		}
	}
	flag := byte(0)
	if m.trained {
		flag |= 1
	}
	if m.Cfg.NoAttention {
		flag |= 2
	}
	if err := bw.WriteByte(flag); err != nil {
		return fmt.Errorf("cfnn: save: %w", err)
	}
	var b4 [4]byte
	writeF32s := func(vals []float32) error {
		for _, v := range vals {
			binary.LittleEndian.PutUint32(b4[:], math.Float32bits(v))
			if _, err := bw.Write(b4[:]); err != nil {
				return err
			}
		}
		return nil
	}
	for _, arr := range [][]float32{m.inOff, m.inScale, m.inMean, m.outOff, m.outScale, m.outMean} {
		if err := writeF32s(arr); err != nil {
			return fmt.Errorf("cfnn: save: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("cfnn: save: %w", err)
	}
	return nn.SaveParams(w, m.net.Params())
}

// Load reconstructs a model saved by Save. The blob may be hostile: a
// header that declares more values than the blob holds is rejected before
// any model memory is allocated.
func Load(blob []byte) (*Model, error) {
	br := bytes.NewReader(blob)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("cfnn: load: %w", err)
	}
	if magic != modelMagic {
		return nil, fmt.Errorf("cfnn: load: bad magic %q", magic[:])
	}
	readU := func() (int, error) {
		v, err := binary.ReadUvarint(br)
		if err != nil {
			return 0, err
		}
		if v > 1<<20 {
			return 0, fmt.Errorf("cfnn: load: absurd config value %d", v)
		}
		return int(v), nil
	}
	var cfg Config
	var err error
	if cfg.SpatialRank, err = readU(); err != nil {
		return nil, fmt.Errorf("cfnn: load: %w", err)
	}
	if cfg.NumAnchors, err = readU(); err != nil {
		return nil, fmt.Errorf("cfnn: load: %w", err)
	}
	if cfg.Features, err = readU(); err != nil {
		return nil, fmt.Errorf("cfnn: load: %w", err)
	}
	if cfg.Kernel, err = readU(); err != nil {
		return nil, fmt.Errorf("cfnn: load: %w", err)
	}
	if cfg.Reduction, err = readU(); err != nil {
		return nil, fmt.Errorf("cfnn: load: %w", err)
	}
	flag, err := br.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("cfnn: load: %w", err)
	}
	cfg.NoAttention = flag&2 != 0
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if need := 4 * cfg.floats(); need > float64(br.Len()) {
		return nil, fmt.Errorf("cfnn: load: header declares %.0f bytes of model values, blob holds %d", need, br.Len())
	}
	m, err := New(cfg)
	if err != nil {
		return nil, err
	}
	m.trained = flag&1 != 0
	var b4 [4]byte
	readF32s := func(dst []float32) error {
		for i := range dst {
			if _, err := io.ReadFull(br, b4[:]); err != nil {
				return err
			}
			dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(b4[:]))
		}
		return nil
	}
	for _, arr := range [][]float32{m.inOff, m.inScale, m.inMean, m.outOff, m.outScale, m.outMean} {
		if err := readF32s(arr); err != nil {
			return nil, fmt.Errorf("cfnn: load: %w", err)
		}
	}
	if err := nn.LoadParams(br, m.net.Params()); err != nil {
		return nil, err
	}
	return m, nil
}

// SizeBytes returns the serialized model size — header + normalization
// stats + weights — without materializing the blob.
func (m *Model) SizeBytes() int {
	n := 4 // magic
	for _, v := range []int{m.Cfg.SpatialRank, m.Cfg.NumAnchors, m.Cfg.Features, m.Cfg.Kernel, m.Cfg.Reduction} {
		n += uvarintLen(uint64(v))
	}
	n++ // trained flag
	n += 4 * (len(m.inOff) + len(m.inScale) + len(m.inMean) + len(m.outOff) + len(m.outScale) + len(m.outMean))
	n += nn.ParamBytes(m.net.Params())
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
