package crossfield

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"slices"
	"sync"

	"repro/internal/archive"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// FieldSpec describes one field of a dataset archive. A nil Codec means
// the field is baseline-compressed (it can still serve as an anchor for
// other fields); a trained Codec means the field is hybrid-compressed
// against the codec's anchor fields, which must also be members of the
// same CompressDataset call.
type FieldSpec struct {
	Field *Field
	Codec *Codec
}

// DatasetStats aggregates the outcome of one CompressDataset call.
type DatasetStats struct {
	OriginalBytes   int
	CompressedBytes int
	Ratio           float64
	// Fields holds each field's individual compression stats.
	Fields map[string]Stats
}

// CompressedDataset is the outcome of CompressDataset: a self-contained
// CFC3 archive blob plus statistics.
type CompressedDataset struct {
	Blob  []byte
	Stats DatasetStats
}

// CompressDataset compresses a whole set of correlated fields into one
// CFC3 archive. Fields whose spec has no codec are baseline-compressed;
// fields with a codec are hybrid-compressed against the *decompressed*
// reconstructions of their anchor fields, exactly as the decompressor will
// see them — the anchor lifecycle the single-field API pushes onto the
// caller is handled here, in topological order.
//
// bound applies to every field unless overridden per field with
// WithFieldBound. WithChunks/WithWorkers switch every field's payload to
// the chunked CFC2 engine. The archive is opened with OpenArchive; no
// anchors are ever passed at decompression time.
//
// CompressDataset is the buffered wrapper over CompressDatasetTo; use the
// latter to stream multi-GB snapshots straight to a file.
func CompressDataset(specs []FieldSpec, bound ErrorBound, opts ...Option) (*CompressedDataset, error) {
	var buf bytes.Buffer
	st, err := CompressDatasetTo(&buf, specs, bound, opts...)
	if err != nil {
		return nil, err
	}
	return &CompressedDataset{Blob: buf.Bytes(), Stats: *st}, nil
}

// CompressDatasetTo is CompressDataset streaming the archive to w. Each
// field's payload is written as it is produced — chunked payloads stream
// chunk by chunk — so the encoder's footprint is bounded by one field's
// compressed payload (retained transiently only for fields other fields
// depend on, to round-trip their reconstructions) plus the anchor
// reconstructions themselves, never the whole archive. Fields are written
// in dependency order, which becomes the archive's manifest order.
func CompressDatasetTo(w io.Writer, specs []FieldSpec, bound ErrorBound, opts ...Option) (*DatasetStats, error) {
	cfg, err := resolveOptions("CompressDataset", opts, true)
	if err != nil {
		return nil, err
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("crossfield: CompressDataset: no fields")
	}
	entries := make([]archive.Entry, len(specs))
	for i, s := range specs {
		if s.Field == nil {
			return nil, fmt.Errorf("crossfield: CompressDataset: spec %d has a nil Field", i)
		}
		if s.Codec != nil && len(s.Codec.names) == 0 {
			return nil, fmt.Errorf("crossfield: CompressDataset: field %q has a codec with no anchor names", s.Field.Name)
		}
		entries[i] = archive.Entry{Name: s.Field.Name, Dims: s.Field.Dims()}
		if s.Codec != nil {
			entries[i].Deps = append([]string(nil), s.Codec.names...)
		}
	}
	order, err := archive.Order(entries)
	if err != nil {
		return nil, fmt.Errorf("crossfield: CompressDataset: %w", err)
	}
	byName := make(map[string]int, len(specs))
	for i, s := range specs {
		byName[s.Field.Name] = i
	}
	for name := range cfg.fieldBounds {
		if _, ok := byName[name]; !ok {
			return nil, fmt.Errorf("crossfield: WithFieldBound(%q): no such field in the dataset", name)
		}
	}
	// Only fields some other field depends on need their reconstruction
	// materialized during compression.
	depended := make(map[string]bool)
	for _, e := range entries {
		for _, d := range e.Deps {
			depended[d] = true
		}
	}

	aw := archive.NewWriter(w)
	if cfg.progressive != nil {
		if err := aw.SetLayered(); err != nil {
			return nil, fmt.Errorf("crossfield: CompressDataset: %w", err)
		}
	}
	recon := make(map[string]*tensor.Tensor, len(depended))
	stats := make(map[string]Stats, len(specs))
	var totalOrig int
	for _, i := range order {
		s := specs[i]
		name := s.Field.Name
		b := bound
		if fb, ok := cfg.fieldBounds[name]; ok {
			b = fb
		}
		// Fields other fields depend on keep a transient copy of their
		// compressed payload: the compressor of every dependent must see
		// bit-identical anchor data to the decompressor's, so the anchor is
		// round-tripped from the exact bytes just streamed out.
		var payloadCopy *bytes.Buffer
		if depended[name] {
			payloadCopy = &bytes.Buffer{}
		}
		// One Stages accumulator per field when the caller asked for
		// timings; chunk workers share it (it is mutex-protected).
		var fieldStages *obs.Stages
		if cfg.timings != nil {
			fieldStages = obs.NewStages()
		}
		e := &entries[i]
		err := aw.Append(e, func(pw io.Writer) error {
			if payloadCopy != nil {
				pw = io.MultiWriter(pw, payloadCopy)
			}
			req := core.EncodeRequest{Bound: b, Stages: fieldStages}
			if s.Codec != nil {
				req.Model, req.AnchorNames = s.Codec.model, s.Codec.names
				req.Anchors = make([]*tensor.Tensor, len(s.Codec.names))
				for k, dep := range s.Codec.names {
					t, ok := recon[dep]
					if !ok {
						return fmt.Errorf("internal: anchor %q not materialized", dep)
					}
					req.Anchors[k] = t
				}
			}
			st, err := cfg.encode(pw, s.Field.t, req)
			if err != nil {
				return err
			}
			stats[name] = *st
			totalOrig += st.OriginalBytes
			e.BoundMode = byte(b.Mode)
			e.BoundValue = b.Value
			e.AbsEB = st.AbsEB
			e.MaxErr = st.MaxErr
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("crossfield: CompressDataset: field %q: %w", name, err)
		}
		if fieldStages != nil {
			cfg.timings.Fields = append(cfg.timings.Fields, FieldTimings{
				Name:   name,
				Stages: fieldStages.SortedSnapshot(),
			})
		}
		if payloadCopy != nil {
			t, err := core.Decompress(payloadCopy.Bytes(), anchorTensorsFor(e.Deps, recon))
			if err != nil {
				return nil, fmt.Errorf("crossfield: CompressDataset: anchor %q round-trip: %w", name, err)
			}
			recon[name] = t
		}
	}
	total, err := aw.Close()
	if err != nil {
		return nil, fmt.Errorf("crossfield: CompressDataset: %w", err)
	}
	return &DatasetStats{
		OriginalBytes:   totalOrig,
		CompressedBytes: int(total),
		Ratio:           float64(totalOrig) / float64(total),
		Fields:          stats,
	}, nil
}

// anchorTensorsFor resolves dep names against the reconstruction cache;
// nil for baseline fields (no deps).
func anchorTensorsFor(deps []string, recon map[string]*tensor.Tensor) []*tensor.Tensor {
	if len(deps) == 0 {
		return nil
	}
	out := make([]*tensor.Tensor, len(deps))
	for i, d := range deps {
		out[i] = recon[d]
	}
	return out
}

// FieldInfo is one field's manifest record as reported by Archive.Manifest.
type FieldInfo struct {
	Name      string
	Dims      []int
	Role      string   // "standalone", "anchor", "dependent", "anchor+dependent"
	Anchors   []string // anchor field names, in decompression order
	Bound     ErrorBound
	AbsEB     float64
	MaxErr    float64 // achieved max abs error recorded at compression; NaN if unknown
	Container string  // payload format: "CFC1" (monolithic) or "CFC2" (chunked)
	Bytes     int     // compressed payload size
	Checksum  uint32  // CRC32 (IEEE) of the payload, from the manifest
}

// Archive is an opened CFC3 dataset archive. Field decompresses any field
// on demand, materializing (and caching) its anchors first — callers never
// pass anchors. An Archive is safe for concurrent use: each field is
// decompressed at most once, and readers of already-materialized fields
// never wait on another field's decompression.
type Archive struct {
	arc   *archive.Archive
	slots []archiveSlot
}

// archiveSlot is one field's lazily-materialized reconstruction. The
// per-slot once means concurrent Field calls serialize only on the fields
// they actually need.
type archiveSlot struct {
	once sync.Once
	f    *Field
	err  error
}

// OpenArchive parses a CFC3 archive blob. Only the manifest is read;
// payloads are decompressed lazily by Field. The blob must not be mutated
// while the Archive is in use.
func OpenArchive(blob []byte) (*Archive, error) {
	a, err := archive.Decode(blob)
	if err != nil {
		return nil, err
	}
	return &Archive{arc: a, slots: make([]archiveSlot, a.NumFields())}, nil
}

// OpenArchiveReader parses a CFC3 archive from an io.ReaderAt of the given
// total size — typically an *os.File or an mmap-backed reader — without
// reading the whole blob: only the manifest (and, for streaming archives,
// the fixed-size trailer) is touched, and field payloads are read on
// demand. This is how serving layers mount archives larger than RAM. The
// reader must remain valid while the Archive is in use.
func OpenArchiveReader(r io.ReaderAt, size int64) (*Archive, error) {
	a, err := archive.NewReader(r, size)
	if err != nil {
		return nil, err
	}
	return &Archive{arc: a, slots: make([]archiveSlot, a.NumFields())}, nil
}

// Size returns the archive's total size in bytes.
func (a *Archive) Size() int64 { return a.arc.Size() }

// IsArchive reports whether blob is a CFC3 dataset archive.
func IsArchive(blob []byte) bool { return archive.IsArchive(blob) }

// Fields returns the archived field names in manifest order.
func (a *Archive) Fields() []string {
	out := make([]string, a.arc.NumFields())
	for i, e := range a.arc.Entries {
		out[i] = e.Name
	}
	return out
}

// Manifest returns every field's metadata in manifest order.
func (a *Archive) Manifest() []FieldInfo {
	out := make([]FieldInfo, a.arc.NumFields())
	for i, e := range a.arc.Entries {
		// Peek the payload magic without checksum verification: this is a
		// listing, not a decode.
		kind := "CFC1"
		if string(a.arc.PayloadPrefix(i, 4)) == "CFC2" {
			kind = "CFC2"
		}
		out[i] = FieldInfo{
			Name:      e.Name,
			Dims:      append([]int(nil), e.Dims...),
			Role:      e.Role.String(),
			Anchors:   append([]string(nil), e.Deps...),
			Bound:     quant.Bound{Mode: quant.Mode(e.BoundMode), Value: e.BoundValue},
			AbsEB:     e.AbsEB,
			MaxErr:    e.MaxErr,
			Container: kind,
			Bytes:     e.PayloadLen,
			Checksum:  e.Checksum,
		}
	}
	return out
}

// FieldInfoFor returns the named field's manifest record.
func (a *Archive) FieldInfoFor(name string) (FieldInfo, bool) {
	i, ok := a.arc.Lookup(name)
	if !ok {
		return FieldInfo{}, false
	}
	return a.Manifest()[i], true
}

// TopoNames returns the archived field names in dependency order: every
// field after all of its anchors. This is the order Field materializes
// reconstructions in, and the order serving layers should decode.
func (a *Archive) TopoNames() []string {
	order := a.arc.TopoOrder()
	out := make([]string, len(order))
	for k, i := range order {
		out[k] = a.arc.Entries[i].Name
	}
	return out
}

// ErrChecksum is returned (wrapped) by FieldPayload when a payload's
// stored bytes no longer match the manifest CRC — bit rot, a truncated
// copy, or a corrupted mmap page. Serving layers match it with
// errors.Is to quarantine the payload instead of retrying the read
// forever.
var ErrChecksum = archive.ErrChecksum

// FieldPayload reads the named field's raw compressed payload (a
// self-contained CFC1 or CFC2 blob) after verifying its manifest checksum.
// Serving layers use it to feed random-access chunk decoding
// (DecompressChunk) without materializing the whole field. A corrupted
// payload surfaces as an ErrChecksum-wrapped error.
func (a *Archive) FieldPayload(name string) ([]byte, error) {
	i, ok := a.arc.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("crossfield: archive has no field %q (have %v)", name, a.Fields())
	}
	return a.arc.Payload(i)
}

// PayloadReader returns a reader over the named field's raw compressed
// payload bytes within the archive, WITHOUT checksum verification and
// without materializing them. Serving layers use it to parse a payload's
// own header (e.g. its CFC2 chunk index) or hash its content while
// mounting archives larger than RAM; anything that decodes the bytes
// should go through FieldPayload, which verifies the checksum.
func (a *Archive) PayloadReader(name string) (*io.SectionReader, error) {
	i, ok := a.arc.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("crossfield: archive has no field %q (have %v)", name, a.Fields())
	}
	return a.arc.PayloadSection(i)
}

// DecodeField decompresses the named field against explicitly supplied
// anchor reconstructions (in the field's Anchors order), bypassing the
// Archive's internal unbounded cache. It is the per-field decode hook for
// serving layers that manage their own bounded caches; most callers want
// Field, which materializes and caches anchors automatically.
func (a *Archive) DecodeField(name string, anchors []*Field) (*Field, error) {
	i, ok := a.arc.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("crossfield: archive has no field %q (have %v)", name, a.Fields())
	}
	e := a.arc.Entries[i]
	if len(anchors) != len(e.Deps) {
		return nil, fmt.Errorf("crossfield: field %q needs %d anchors %v, got %d", name, len(e.Deps), e.Deps, len(anchors))
	}
	f, _, err := a.decode(i, fieldTensors(anchors), LevelFull)
	return f, err
}

// FieldLevels reports the named field's progressive layering by parsing
// only its payload header and layer table — no payload data is read.
// Non-progressive fields report a single level.
func (a *Archive) FieldLevels(name string) (*LevelSpec, error) {
	i, ok := a.arc.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("crossfield: archive has no field %q (have %v)", name, a.Fields())
	}
	sec, err := a.arc.PayloadSection(i)
	if err != nil {
		return nil, err
	}
	return core.PayloadLevelSpecReader(sec, sec.Size())
}

// DecodeFieldAtLevel decompresses the named field at a progressive level
// (0 = coarsest preview, LevelFull = bit-exact). A preview reads only the
// payload prefix its level needs out of the archive — for a file-backed
// mount, the bytes of deeper refinement layers are never touched — and
// the per-layer CRCs verify that prefix. A decode that needs the whole
// payload (LevelFull, the deepest level, or a non-progressive field)
// verifies the manifest checksum, exactly as Field does. Anchors are
// materialized (at full fidelity, as compression saw them) and cached
// exactly as Field does. The achieved max error the compressor recorded
// for the level is returned alongside (NaN for non-progressive fields,
// which accept only level 0).
func (a *Archive) DecodeFieldAtLevel(name string, level int) (*Field, float64, error) {
	i, ok := a.arc.Lookup(name)
	if !ok {
		return nil, 0, fmt.Errorf("crossfield: archive has no field %q (have %v)", name, a.Fields())
	}
	anchors, err := a.anchorsOf(i)
	if err != nil {
		return nil, 0, err
	}
	return a.decode(i, anchors, level)
}

// Field decompresses the named field. Anchors are materialized first, in
// topological order, and cached, so repeated calls — and calls for fields
// sharing anchors — pay the anchor cost once. The returned Field shares
// the cached reconstruction; callers must not mutate its data.
func (a *Archive) Field(name string) (*Field, error) {
	i, ok := a.arc.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("crossfield: archive has no field %q (have %v)", name, a.Fields())
	}
	return a.materialize(i)
}

// materialize decompresses field i and (recursively) its anchors, at most
// once each. Recursing into a dep's slot while inside this slot's once
// cannot deadlock: the manifest graph was validated acyclic at
// OpenArchive time, so the once chain follows a DAG.
func (a *Archive) materialize(i int) (*Field, error) {
	s := &a.slots[i]
	s.once.Do(func() {
		anchors, err := a.anchorsOf(i)
		if err != nil {
			s.err = err
			return
		}
		s.f, _, s.err = a.decode(i, anchors, LevelFull)
	})
	return s.f, s.err
}

// anchorsOf materializes field i's anchors, in its manifest order.
func (a *Archive) anchorsOf(i int) ([]*tensor.Tensor, error) {
	e := a.arc.Entries[i]
	anchors := make([]*tensor.Tensor, len(e.Deps))
	for k, dep := range e.Deps {
		j, ok := a.arc.Lookup(dep)
		if !ok {
			return nil, fmt.Errorf("crossfield: field %q anchor %q missing from manifest", e.Name, dep)
		}
		af, err := a.materialize(j)
		if err != nil {
			return nil, fmt.Errorf("crossfield: field %q anchor: %w", e.Name, err)
		}
		anchors[k] = af.t
	}
	return anchors, nil
}

// decode decompresses field i at level against its anchor
// reconstructions and checks the result against the manifest dims. Only
// a preview of a layered payload reads through the payload section;
// every whole-payload decode goes through the manifest checksum, so each
// decoded byte is covered by a layer CRC or the manifest CRC.
func (a *Archive) decode(i int, anchors []*tensor.Tensor, level int) (*Field, float64, error) {
	e := a.arc.Entries[i]
	t, achieved, err := a.decodeTensor(i, anchors, level)
	if err != nil {
		return nil, 0, fmt.Errorf("crossfield: field %q: %w", e.Name, err)
	}
	if !slices.Equal(t.Shape(), e.Dims) {
		return nil, 0, fmt.Errorf("crossfield: field %q payload dims %v, manifest says %v", e.Name, t.Shape(), e.Dims)
	}
	return &Field{Name: e.Name, t: t}, achieved, nil
}

func (a *Archive) decodeTensor(i int, anchors []*tensor.Tensor, level int) (*tensor.Tensor, float64, error) {
	decode := func(r io.ReaderAt, size int64) (*tensor.Tensor, float64, error) {
		t, _, achieved, err := core.Decode(context.Background(), r, size, core.Request{Chunk: core.Whole, Level: level, Anchors: anchors})
		return t, achieved, err
	}
	if level >= 0 {
		sec, err := a.arc.PayloadSection(i)
		if err != nil {
			return nil, 0, err
		}
		spec, err := core.PayloadLevelSpecReader(sec, sec.Size())
		if err != nil {
			return nil, 0, err
		}
		if level < spec.Levels-1 {
			return decode(sec, sec.Size())
		}
	}
	payload, err := a.arc.Payload(i)
	if err != nil {
		return nil, 0, err
	}
	return decode(bytes.NewReader(payload), int64(len(payload)))
}
