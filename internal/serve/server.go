package serve

import (
	"bytes"
	"compress/gzip"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	crossfield "repro"
	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/quant"
	"repro/internal/resilience"
	"repro/internal/tensor"
)

// Config sizes the shared decode caches. Each cached entry holds the
// decoded values plus their pre-serialized response body, and both are
// charged to the budget, so a resident field costs ~8 bytes per voxel.
type Config struct {
	// FieldCacheBytes bounds the decoded-field LRU (anchors and whole
	// fields); 0 selects 256 MiB. Negative disables retention.
	FieldCacheBytes int64
	// ChunkCacheBytes bounds the decoded-chunk LRU; 0 selects 64 MiB.
	// Negative disables retention.
	ChunkCacheBytes int64
	// PayloadCacheBytes bounds the compressed-payload LRU that backs
	// on-demand payload reads from file-backed mounts; 0 selects 128 MiB.
	// Negative disables retention.
	PayloadCacheBytes int64
	// TraceSpans bounds the spans recorded per request; 0 selects 64.
	// Overflowing spans are counted and dropped, never grown.
	TraceSpans int
	// TraceRing bounds how many completed request traces GET /debug/trace
	// retains; 0 selects 64, negative disables the ring.
	TraceRing int
	// AccessLog, when non-nil, receives one structured JSON line per
	// request (trace id, route, status, bytes, duration). Writes are
	// serialized; pass os.Stderr or a log file directly.
	AccessLog io.Writer
	// DecodeBudgetBytes bounds the predicted decode output bytes in
	// flight at once: cold field/chunk requests acquire their predicted
	// weight from the admission controller before decoding, wait in a
	// bounded FIFO queue when the budget is spent, and are shed with
	// 503 + Retry-After when the queue is also full. Hot cache hits
	// bypass admission entirely. 0 selects 512 MiB; negative disables
	// admission control.
	DecodeBudgetBytes int64
	// AdmissionQueue bounds how many cold requests may wait for decode
	// budget before newcomers are shed; 0 selects 64, negative selects
	// no queue at all (anything that cannot be admitted immediately is
	// shed — useful in tests and latency-critical deployments).
	AdmissionQueue int
	// RequestTimeout, when positive, caps each request end to end: the
	// request context (which cancellation-checked decodes and queued
	// admission waits observe) expires, and the connection's write
	// deadline is set so a stalled client cannot pin response bytes —
	// and the admission weight they account for — forever.
	RequestTimeout time.Duration
}

const (
	defaultFieldCacheBytes   = 256 << 20
	defaultChunkCacheBytes   = 64 << 20
	defaultPayloadCacheBytes = 128 << 20
	defaultDecodeBudgetBytes = 512 << 20
	defaultAdmissionQueue    = 64
)

// Server mounts compressed containers — CFC3 dataset archives or bare
// CFC1/CFC2 single-field blobs — and serves their manifests, decoded
// fields, and random-access chunks over HTTP. Mounts are backed by an
// io.ReaderAt (an in-memory blob, an open file, or an mmap), and nothing
// beyond each archive's manifest is resident: payload bytes are read on
// demand through a compressed-payload LRU, so archives larger than RAM
// serve fine from MountFile. All mounts share one decoded-field cache and
// one decoded-chunk cache, so anchor reconstructions are deduplicated
// across dependent fields, across requests, and (by content-addressed
// keys) across archives that share identical anchor payloads.
type Server struct {
	mu     sync.RWMutex
	mounts map[string]*mount
	order  []string
	// retired holds the closers of replaced mounts: a remount must not
	// munmap a backing that in-flight requests may still be reading, so
	// old backings stay open until Close.
	retired []func() error

	fields   *Cache
	chunks   *Cache
	payloads *Cache
	metrics  metricsState

	// admission bounds predicted decode bytes in flight (nil when
	// disabled); requestTimeout is the per-request end-to-end deadline
	// (0 when disabled).
	admission      *resilience.Controller
	requestTimeout time.Duration

	// quarantined marks payload cache keys whose stored bytes failed
	// their CRC: map[pkey]struct{}. A quarantined payload fails fast
	// with a distinct 502 instead of re-reading and re-hashing the same
	// corrupt bytes on every request; chunk requests may still be
	// repaired from a cluster peer (decoded bytes travel, the local
	// payload stays bad until remounted).
	quarantined sync.Map

	// ready gates GET /readyz: liveness (/healthz) answers as soon as the
	// process serves HTTP, readiness flips false while mounts are still
	// being registered (cfserve mounts in the background so multi-GB mmap
	// passes don't block the listener). New starts ready; callers that
	// mount asynchronously call SetReady(false) first.
	ready atomic.Bool

	// remote, when non-nil, is consulted before a local chunk decode: a
	// cluster node fetches already-decoded chunk bytes from the peer that
	// owns the chunk's content key, so one decode warms the whole
	// cluster's LRUs. Set it before serving traffic.
	remote RemoteChunks
}

// RemoteChunks supplies decoded chunk bytes from a cluster peer, keyed by
// the chunk's Merkle content address (the same string served as the
// chunk's ETag). FetchChunk returns the little-endian float32 body and
// true, or false when the caller should decode locally (self-owned key,
// peer down, undersized response). Implementations must not call back
// into the same Server without suppressing remote fetch (cluster clients
// mark their requests with X-CFC-Internal), or two nodes could wait on
// each other forever.
type RemoteChunks interface {
	FetchChunk(ctx context.Context, key, archive, field string, chunk, size int) ([]byte, bool)
}

// RemoteRepair is optionally implemented by RemoteChunks installations
// that can refetch a chunk from any ring replica (not just when the key
// is remote-owned): after a local payload fails its CRC, the server
// attempts a one-shot RepairChunk so reads keep flowing from healthy
// copies while the operator remounts the damaged archive. Same contract
// as FetchChunk; implementations must skip the calling node itself.
type RemoteRepair interface {
	RepairChunk(ctx context.Context, key, archive, field string, chunk, size int) ([]byte, bool)
}

// SetRemote installs the cluster peer-fetch hook. Call it after New and
// before the handler serves traffic; passing nil disables peer fetch.
func (s *Server) SetRemote(rc RemoteChunks) { s.remote = rc }

// SetReady flips the /readyz state. cfserve sets false before mounting in
// the background and true once every mount is registered.
func (s *Server) SetReady(v bool) { s.ready.Store(v) }

// Ready reports the current /readyz state.
func (s *Server) Ready() bool { return s.ready.Load() }

// noRemoteKey marks a request context as cluster-internal: the serving
// node must decode locally rather than fetch from a peer, which bounds
// every cluster request at one hop and prevents fetch cycles.
type noRemoteKey struct{}

func suppressRemote(ctx context.Context) context.Context {
	return context.WithValue(ctx, noRemoteKey{}, true)
}

func remoteSuppressed(ctx context.Context) bool {
	v, _ := ctx.Value(noRemoteKey{}).(bool)
	return v
}

// mount is one named container exposed under /v1/archives/{name}.
type mount struct {
	name    string
	src     io.ReaderAt
	size    int64
	closeFn func() error // releases a file/mmap backing; nil for blobs
	format  string       // "CFC3", "CFC2", or "CFC1"
	ar      *crossfield.Archive
	// blobPayload holds a bare CFC1 blob read once at mount time (it is a
	// single compressed field, needed whole for metadata anyway); nil for
	// archives and bare CFC2 mounts, whose payloads are read on demand.
	blobPayload []byte
	fieldList   []fieldView
	byName      map[string]int
	topo        []int // field indices in dependency (decode) order
}

// fieldView is one servable field: its manifest record, resolved dep
// indices, chunk index, and the content-addressed cache key. Payload
// bytes are NOT retained — they are read on demand through the payload
// LRU and checksum-verified per read.
type fieldView struct {
	info   crossfield.FieldInfo
	deps   []int
	chunks []core.ChunkInfo
	// levels describes the payload's progressive layering, parsed from
	// the layer table at mount time (no payload data read). Non-layered
	// payloads report one level; every mount gets a spec so request-time
	// level resolution never re-parses the container.
	levels *core.LevelSpec
	// key is a Merkle-style content hash: sha256 over the field's
	// compressed payload and the keys of its anchors. Two mounts whose
	// field (and transitive anchor) payloads are byte-identical share
	// cache entries, which is what dedups anchor decodes across
	// successive-timestep archives.
	key string
}

// ErrCorruptPayload marks a payload quarantined by a CRC mismatch. It
// maps to a distinct 502: the stored bytes are damaged, which is not
// the client's fault (4xx) and not a transient server overload (503) —
// the mount is acting as a bad gateway to the archive's true content.
var ErrCorruptPayload = errors.New("serve: payload quarantined (checksum mismatch)")

// New returns a Server with the given cache budgets and no mounts.
func New(cfg Config) *Server {
	if cfg.FieldCacheBytes == 0 {
		cfg.FieldCacheBytes = defaultFieldCacheBytes
	}
	if cfg.ChunkCacheBytes == 0 {
		cfg.ChunkCacheBytes = defaultChunkCacheBytes
	}
	if cfg.PayloadCacheBytes == 0 {
		cfg.PayloadCacheBytes = defaultPayloadCacheBytes
	}
	if cfg.DecodeBudgetBytes == 0 {
		cfg.DecodeBudgetBytes = defaultDecodeBudgetBytes
	}
	if cfg.AdmissionQueue == 0 {
		cfg.AdmissionQueue = defaultAdmissionQueue
	} else if cfg.AdmissionQueue < 0 {
		cfg.AdmissionQueue = 0
	}
	s := &Server{
		mounts:         make(map[string]*mount),
		fields:         NewCache(cfg.FieldCacheBytes),
		chunks:         NewCache(cfg.ChunkCacheBytes),
		payloads:       NewCache(cfg.PayloadCacheBytes),
		requestTimeout: cfg.RequestTimeout,
	}
	if cfg.DecodeBudgetBytes > 0 {
		s.admission = resilience.NewController(cfg.DecodeBudgetBytes, cfg.AdmissionQueue)
	}
	s.metrics.init(cfg.TraceSpans, cfg.TraceRing, cfg.AccessLog)
	s.ready.Store(true)
	return s
}

// AdmissionStats snapshots the decode admission controller (zero when
// admission is disabled). The chaos suite asserts HighWaterBytes never
// exceeds CapacityBytes under a request storm.
func (s *Server) AdmissionStats() resilience.Stats {
	if s.admission == nil {
		return resilience.Stats{}
	}
	return s.admission.Stats()
}

// Mount registers an in-memory blob under name. CFC3 archives expose
// every manifest field; bare CFC1/CFC2 blobs expose a single field named
// like the mount. Mounting a name twice replaces the previous mount (the
// cache is content addressed, so stale entries are simply never
// referenced again and age out of the LRU).
func (s *Server) Mount(name string, blob []byte) error {
	return s.mountReader(name, bytes.NewReader(blob), int64(len(blob)), nil)
}

// MountFile mounts the container at path through a file-backed
// io.ReaderAt — memory-mapped on Linux, pread elsewhere — so the blob is
// never copied into the process: mounting reads one sequential pass to
// hash content keys, and requests read only the payloads they decode.
// This is how archives larger than RAM are served.
func (s *Server) MountFile(name, path string) error {
	src, size, closeFn, err := openMapped(path)
	if err != nil {
		return fmt.Errorf("serve: mount %q: %w", name, err)
	}
	if err := s.mountReader(name, src, size, closeFn); err != nil {
		closeFn()
		return err
	}
	return nil
}

// mountReader registers a container backed by an arbitrary io.ReaderAt.
func (s *Server) mountReader(name string, src io.ReaderAt, size int64, closeFn func() error) error {
	if name == "" || strings.ContainsAny(name, "/ \t\n") {
		return fmt.Errorf("serve: invalid mount name %q", name)
	}
	var prefix [4]byte
	if size >= 4 {
		if _, err := src.ReadAt(prefix[:], 0); err != nil {
			return fmt.Errorf("serve: mount %q: %w", name, err)
		}
	}
	var (
		m   *mount
		err error
	)
	if crossfield.IsArchive(prefix[:]) {
		m, err = mountArchive(name, src, size)
	} else {
		m, err = mountBlob(name, src, size)
	}
	if err != nil {
		return err
	}
	m.closeFn = closeFn
	s.mu.Lock()
	old := s.mounts[name]
	if old == nil {
		s.order = append(s.order, name)
	} else if old.closeFn != nil {
		// In-flight requests may still hold the old mount and read from
		// its backing; never munmap/close it mid-flight. It is retired and
		// released at Close.
		s.retired = append(s.retired, old.closeFn)
		old.closeFn = nil
	}
	s.mounts[name] = m
	s.mu.Unlock()
	return nil
}

// Close releases every file- or mmap-backed mount, including backings
// retired by remounts. Call it only once requests have drained (after
// http.Server.Shutdown): reads through a closed backing would fail, and a
// munmapped one would fault.
func (s *Server) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	closeOne := func(fn func() error) {
		if err := fn(); err != nil && first == nil {
			first = err
		}
	}
	for _, m := range s.mounts {
		if m.closeFn != nil {
			closeOne(m.closeFn)
			m.closeFn = nil
		}
	}
	for _, fn := range s.retired {
		closeOne(fn)
	}
	s.retired = nil
	return first
}

// MountNames returns the mounted archive names in mount order.
func (s *Server) MountNames() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return append([]string(nil), s.order...)
}

// FieldCacheStats, ChunkCacheStats, and PayloadCacheStats snapshot the
// shared caches.
func (s *Server) FieldCacheStats() CacheStats   { return s.fields.Stats() }
func (s *Server) ChunkCacheStats() CacheStats   { return s.chunks.Stats() }
func (s *Server) PayloadCacheStats() CacheStats { return s.payloads.Stats() }

func mountArchive(name string, src io.ReaderAt, size int64) (*mount, error) {
	ar, err := crossfield.OpenArchiveReader(src, size)
	if err != nil {
		return nil, fmt.Errorf("serve: mount %q: %w", name, err)
	}
	man := ar.Manifest()
	m := &mount{
		name:      name,
		src:       src,
		size:      size,
		format:    "CFC3",
		ar:        ar,
		fieldList: make([]fieldView, len(man)),
		byName:    make(map[string]int, len(man)),
	}
	for i, fi := range man {
		m.byName[fi.Name] = i
	}
	for i, fi := range man {
		deps := make([]int, len(fi.Anchors))
		for k, dep := range fi.Anchors {
			deps[k] = m.byName[dep]
		}
		chunks, err := archiveChunkIndex(ar, fi)
		if err != nil {
			return nil, fmt.Errorf("serve: mount %q field %q: %w", name, fi.Name, err)
		}
		levels, err := ar.FieldLevels(fi.Name)
		if err != nil {
			return nil, fmt.Errorf("serve: mount %q field %q: %w", name, fi.Name, err)
		}
		m.fieldList[i] = fieldView{info: fi, deps: deps, chunks: chunks, levels: levels}
	}
	// Keys must be computed anchors-first; TopoNames gives that order. The
	// payload hash streams through the reader — one sequential pass over
	// the archive at mount time, nothing retained.
	for _, fn := range ar.TopoNames() {
		i := m.byName[fn]
		pr, err := ar.PayloadReader(fn)
		if err != nil {
			return nil, fmt.Errorf("serve: mount %q: %w", name, err)
		}
		key, err := contentKeyFrom(pr, m.depKeys(i))
		if err != nil {
			return nil, fmt.Errorf("serve: mount %q field %q: %w", name, fn, err)
		}
		m.fieldList[i].key = key
		m.topo = append(m.topo, i)
	}
	return m, nil
}

// archiveChunkIndex builds a field's chunk table from its payload header
// alone: CFC2 payloads stream-parse their index (no chunk bytes read),
// and monolithic CFC1 payloads synthesize the single whole-field chunk
// from the manifest. The container kind is re-detected here with the
// read error surfaced — the manifest's best-effort Container label must
// not decide the chunk geometry, or a failed peek would silently serve a
// multi-chunk payload as one whole-field chunk.
func archiveChunkIndex(ar *crossfield.Archive, fi crossfield.FieldInfo) ([]core.ChunkInfo, error) {
	pr, err := ar.PayloadReader(fi.Name)
	if err != nil {
		return nil, err
	}
	var prefix [4]byte
	if _, err := pr.ReadAt(prefix[:], 0); err != nil {
		return nil, fmt.Errorf("payload magic read: %w", err)
	}
	if chunk.IsChunked(prefix[:]) {
		cr, err := chunk.NewReader(pr, pr.Size())
		if err != nil {
			return nil, err
		}
		return core.ChunkInfoFromIndex(cr.Header().Dims, cr.Index()), nil
	}
	n := 1
	for _, d := range fi.Dims {
		n *= d
	}
	return []core.ChunkInfo{{
		Start:        0,
		Slabs:        fi.Dims[0],
		Voxels:       n,
		RawBytes:     n * 4,
		PayloadBytes: fi.Bytes,
		MaxErr:       fi.MaxErr,
	}}, nil
}

func mountBlob(name string, src io.ReaderAt, size int64) (*mount, error) {
	m := &mount{
		name:   name,
		src:    src,
		size:   size,
		byName: map[string]int{name: 0},
		topo:   []int{0},
	}
	fi := crossfield.FieldInfo{
		Name:   name,
		Role:   "standalone",
		MaxErr: math.NaN(),
		Bytes:  int(size),
	}
	var prefix [4]byte
	if size >= 4 {
		if _, err := src.ReadAt(prefix[:], 0); err != nil {
			return nil, fmt.Errorf("serve: mount %q: %w", name, err)
		}
	}
	var chunks []core.ChunkInfo
	if chunk.IsChunked(prefix[:]) {
		// Stream-parse the CFC2 header and index; payload bytes stay on
		// the reader until a request needs them.
		cr, err := chunk.NewReader(src, size)
		if err != nil {
			return nil, fmt.Errorf("serve: mount %q: %w", name, err)
		}
		h := cr.Header()
		fi.Dims = append([]int(nil), h.Dims...)
		fi.Bound = quant.Bound{Mode: quant.Mode(h.BoundMode), Value: h.BoundValue}
		fi.AbsEB = h.AbsEB
		fi.Anchors = append([]string(nil), h.Anchors...)
		fi.Container = "CFC2"
		me := math.NaN()
		for _, e := range cr.Index() {
			if !math.IsNaN(e.MaxErr) && (math.IsNaN(me) || e.MaxErr > me) {
				me = e.MaxErr
			}
		}
		fi.MaxErr = me
		chunks = core.ChunkInfoFromIndex(h.Dims, cr.Index())
	} else {
		// A monolithic CFC1 blob is one compressed field; reading it whole
		// for metadata is the floor, so keep it resident for requests too.
		blob, err := readAllAt(src, size)
		if err != nil {
			return nil, fmt.Errorf("serve: mount %q: %w", name, err)
		}
		hdr, err := core.PeekStats(blob)
		if err != nil {
			return nil, fmt.Errorf("serve: mount %q: %w", name, err)
		}
		fi.Dims = append([]int(nil), hdr.Dims...)
		fi.Bound = quant.Bound{Mode: quant.Mode(hdr.BoundMode), Value: hdr.BoundValue}
		fi.AbsEB = hdr.AbsEB
		fi.Anchors = append([]string(nil), hdr.Anchors...)
		fi.Container = "CFC1"
		if chunks, err = core.ChunkIndex(blob); err != nil {
			return nil, fmt.Errorf("serve: mount %q: %w", name, err)
		}
		m.blobPayload = blob
	}
	crc, err := crcReaderAt(src, size)
	if err != nil {
		return nil, fmt.Errorf("serve: mount %q: %w", name, err)
	}
	fi.Checksum = crc
	levels, err := core.PayloadLevelSpecReader(src, size)
	if err != nil {
		return nil, fmt.Errorf("serve: mount %q: %w", name, err)
	}
	// A bare hybrid blob records anchors the server cannot reconstruct
	// (they live outside the blob); it still mounts for metadata, and
	// data requests report the missing anchors.
	if len(fi.Anchors) > 0 {
		fi.Role = "dependent"
	}
	m.format = fi.Container
	key, err := contentKeyFrom(io.NewSectionReader(src, 0, size), nil)
	if err != nil {
		return nil, fmt.Errorf("serve: mount %q: %w", name, err)
	}
	m.fieldList = []fieldView{{info: fi, chunks: chunks, levels: levels, key: key}}
	return m, nil
}

// readAllAt materializes an io.ReaderAt into memory (bare-blob mounts
// only; archives never need it).
func readAllAt(src io.ReaderAt, size int64) ([]byte, error) {
	buf := make([]byte, size)
	if size == 0 {
		return buf, nil
	}
	_, err := src.ReadAt(buf, 0)
	return buf, err
}

// crcReaderAt computes the CRC32 the manifest reports for a bare mount.
// A read error must surface: recording a partial checksum would make
// every later payload verification fail with a misleading mismatch.
func crcReaderAt(src io.ReaderAt, size int64) (uint32, error) {
	h := crc32.NewIEEE()
	if _, err := io.Copy(h, io.NewSectionReader(src, 0, size)); err != nil {
		return 0, err
	}
	return h.Sum32(), nil
}

// depKeys returns the already-computed content keys of field i's anchors.
func (m *mount) depKeys(i int) []string {
	deps := m.fieldList[i].deps
	if len(deps) == 0 {
		return nil
	}
	keys := make([]string, len(deps))
	for k, d := range deps {
		keys[k] = m.fieldList[d].key
	}
	return keys
}

// contentKeyFrom hashes a compressed payload stream together with its
// anchors' keys, giving a Merkle-style content address: equal payload
// bytes plus equal anchor chains decode to equal data, wherever they are
// mounted. The payload is consumed, never retained.
func contentKeyFrom(payload io.Reader, depKeys []string) (string, error) {
	h := sha256.New()
	if _, err := io.Copy(h, payload); err != nil {
		return "", err
	}
	for _, k := range depKeys {
		h.Write([]byte{0})
		h.Write([]byte(k))
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// lookup resolves an archive and field name under the read lock.
func (s *Server) lookup(archiveName, fieldName string) (*mount, int, bool) {
	s.mu.RLock()
	m, ok := s.mounts[archiveName]
	s.mu.RUnlock()
	if !ok {
		return nil, 0, false
	}
	if fieldName == "" {
		return m, -1, true
	}
	i, ok := m.byName[fieldName]
	if !ok {
		return m, 0, false
	}
	return m, i, true
}

// region is one slab range [start, start+slabs) of a field along axis 0,
// the unit the server decodes, caches and serves: the whole field
// (chunk == wholeField), cached in the field LRU under the content key,
// or one chunk, cached in the chunk LRU under key#i.
type region struct {
	chunk, start, slabs int
}

// wholeField is the chunk index of a whole-field region.
const wholeField = core.Whole

// whole is fv's whole-field region.
func (fv *fieldView) whole() region { return region{chunk: wholeField, slabs: fv.info.Dims[0]} }

// chunkRegion is chunk ci's region, as the payload's chunk index places it.
func (fv *fieldView) chunkRegion(ci int) region {
	c := fv.chunks[ci]
	return region{chunk: ci, start: c.Start, slabs: c.Slabs}
}

// regionDims is the shape a decode of rg must have: the manifest dims
// with axis 0 cut to the region.
func (fv *fieldView) regionDims(rg region) []int {
	dims := slices.Clone(fv.info.Dims)
	dims[0] = rg.slabs
	return dims
}

// regionsOver returns the regions of fv that cover rg's slab range: the
// whole field for a whole-field region, else every chunk intersecting it.
func (fv *fieldView) regionsOver(rg region) []region {
	if rg.chunk == wholeField {
		return []region{fv.whole()}
	}
	var out []region
	for ci, c := range fv.chunks {
		if c.Start < rg.start+rg.slabs && c.Start+c.Slabs > rg.start {
			out = append(out, fv.chunkRegion(ci))
		}
	}
	return out
}

// regionCache returns the LRU that holds region rg of fv and its
// full-fidelity cache key.
func (s *Server) regionCache(fv *fieldView, rg region) (*Cache, string) {
	if rg.chunk == wholeField {
		return s.fields, fv.key
	}
	return s.chunks, fv.key + "#" + strconv.Itoa(rg.chunk)
}

// regionVal is a cached decoded region: the tensor for anchor use plus
// its serialized little-endian body, built once at decode time so hot
// requests never re-serialize. Both copies are charged to the cache
// budget. achieved is the compressor-recorded max error of the decoded
// progressive level (NaN when unknown); full-fidelity responses report
// the manifest's max error instead.
type regionVal struct {
	t        *tensor.Tensor
	raw      []byte
	achieved float64
}

func (v *regionVal) size() int64 { return int64(4*v.t.Len() + len(v.raw)) }

// payloadBytes returns field i's compressed payload bytes through the
// shared payload LRU: file-backed mounts read them on demand (one pread
// or page-cache copy per cold entry) and verify the manifest checksum per
// read, so hot chunk requests never touch the backing file. The
// payload_read stage is recorded inside the compute closure, so only the
// singleflight leader that actually touches the backing observes it.
//
// A CRC mismatch quarantines the payload: the error is not cached by the
// LRU (errors never are), so without the quarantine mark every request
// would re-read and re-hash the same corrupt bytes forever. Quarantined
// payloads fail fast with ErrCorruptPayload until the mount is replaced
// (remounting installs fresh fieldViews, whose reads re-verify).
func (s *Server) payloadBytes(ctx context.Context, m *mount, fv *fieldView) ([]byte, error) {
	if m.blobPayload != nil {
		return m.blobPayload, nil
	}
	pkey := fv.key + "/payload"
	if _, bad := s.quarantined.Load(pkey); bad {
		return nil, fmt.Errorf("%w: mount %q field %q", ErrCorruptPayload, m.name, fv.info.Name)
	}
	v, err := s.payloads.GetOrCompute(ctx, pkey, func(cctx context.Context) (any, int64, error) {
		_, end := s.metrics.stage(cctx, "payload_read", s.metrics.stages.payloadRead)
		defer end()
		var (
			p   []byte
			err error
		)
		if m.ar != nil {
			p, err = m.ar.FieldPayload(fv.info.Name)
		} else {
			if p, err = readAllAt(m.src, m.size); err == nil && crc32.ChecksumIEEE(p) != fv.info.Checksum {
				err = fmt.Errorf("serve: mount %q payload: %w", m.name, crossfield.ErrChecksum)
			}
		}
		if err != nil {
			if errors.Is(err, crossfield.ErrChecksum) {
				s.quarantinePayload(pkey)
				err = fmt.Errorf("%w: mount %q field %q: %v", ErrCorruptPayload, m.name, fv.info.Name, err)
			}
			return nil, 0, err
		}
		return p, int64(len(p)), nil
	})
	if err != nil {
		return nil, err
	}
	return v.([]byte), nil
}

// quarantinePayload marks one payload key corrupt, counting each
// distinct payload once.
func (s *Server) quarantinePayload(pkey string) {
	if _, loaded := s.quarantined.LoadOrStore(pkey, struct{}{}); !loaded {
		s.metrics.corruptPayloads.Inc()
	}
}

// regionData returns region rg of field fv decoded at level (LevelFull
// for full fidelity), through the region's LRU with singleflight
// coalescing. A preview is cached under its own level key next to the
// full-fidelity entry. Stage spans and decode timings are recorded inside
// the compute closure: the singleflight leader that runs the decode
// observes them exactly once, coalesced waiters never do.
func (s *Server) regionData(ctx context.Context, m *mount, fv *fieldView, rg region, level int) (*regionVal, error) {
	level = fv.normLevel(level)
	cache, key := s.regionCache(fv, rg)
	tr, parent := obs.FromContext(ctx)
	lid := tr.Start(parent, "cache_lookup")
	lstart := time.Now()
	v, err := cache.GetOrCompute(ctx, levelKey(key, level), func(dctx context.Context) (any, int64, error) {
		// dctx is detached from any one caller: it carries the leader's
		// trace values but is canceled only when every coalesced waiter
		// has abandoned the computation. Deriving a child context
		// allocates, but only here on the cold path.
		val, err := s.decodeRegion(obs.ContextWithSpan(dctx, tr, lid), m, fv, rg, key, level)
		if err != nil {
			return nil, 0, err
		}
		return val, val.size(), nil
	})
	tr.End(lid)
	s.metrics.stages.cacheLookup.Observe(time.Since(lstart).Seconds())
	if err != nil {
		return nil, err
	}
	return v.(*regionVal), nil
}

// decodeRegion is the cold path of regionData: resolve the region's
// anchors, read the payload through payloadBytes (so its checksum is
// verified and a corrupt payload quarantined in one place for every
// mount kind), decode under ctx, and check the decoded dims against the
// manifest. A full-fidelity chunk first asks a cluster peer that owns
// its content key, and after a CRC failure tries one peer repair; both
// carry full-fidelity bytes keyed by the full content address, so
// previews and whole fields never consult peers — a preview decode is
// already cheaper than a round trip.
func (s *Server) decodeRegion(ctx context.Context, m *mount, fv *fieldView, rg region, key string, level int) (*regionVal, error) {
	dims := fv.regionDims(rg)
	peer := rg.chunk != wholeField && level == crossfield.LevelFull && !remoteSuppressed(ctx)
	// Cluster peer fetch: if another node owns this content key, its
	// cache already holds (or will decode once) these bytes — fetching
	// them is what makes the cluster-wide dedupe real. Runs inside the
	// singleflight closure, so concurrent local requests coalesce onto
	// one fetch; any failure falls through to the local decode.
	if rc := s.remote; peer && rc != nil {
		if val, ok := s.peerChunk(ctx, rc.FetchChunk, key, m, fv, rg.chunk, dims); ok {
			s.metrics.remoteHits.Inc()
			return val, nil
		}
		s.metrics.remoteMisses.Inc()
	}
	anchors, err := s.anchorRegions(ctx, m, fv, rg)
	if err != nil {
		return nil, err
	}
	payload, err := s.payloadBytes(ctx, m, fv)
	if err != nil {
		// One-shot peer repair: the local payload is damaged, but a ring
		// replica (never this node) may hold or decode these chunk bytes.
		// The AnchorClient's cooldown bounds traffic at dead peers, and the
		// result is cached like any decode. Cluster-internal requests never
		// repair: a second hop would break the one-hop bound.
		if rr, ok := s.remote.(RemoteRepair); ok && peer && errors.Is(err, ErrCorruptPayload) {
			if val, ok := s.peerChunk(ctx, rr.RepairChunk, key, m, fv, rg.chunk, dims); ok {
				s.metrics.repairHits.Inc()
				return val, nil
			}
			s.metrics.repairFailures.Inc()
		}
		return nil, err
	}
	stage, hist := "chunk_decode", s.metrics.stages.chunkDecode
	if rg.chunk == wholeField {
		stage, hist = "field_decode", s.metrics.stages.fieldDecode
	}
	_, endDecode := s.metrics.stage(ctx, stage, hist)
	start := time.Now()
	// A chunk region's anchors are that region of each anchor: slabs.
	t, _, achieved, err := core.Decode(ctx, bytes.NewReader(payload), int64(len(payload)), core.Request{
		Chunk: rg.chunk, Level: level, Anchors: anchors, Slabs: rg.chunk != wholeField,
	})
	s.metrics.observeDecode(time.Since(start))
	endDecode()
	if err != nil {
		return nil, err
	}
	if !slices.Equal(t.Shape(), dims) {
		return nil, fmt.Errorf("serve: field %q slabs [%d,%d): payload dims %v, manifest says %v",
			fv.info.Name, rg.start, rg.start+rg.slabs, t.Shape(), dims)
	}
	return &regionVal{t: t, raw: floatBytes(t.Data()), achieved: achieved}, nil
}

// anchorRegions resolves fv's anchors over region rg at full fidelity:
// the anchors of a region are the same region of each anchor field.
// Progressive previews use them unchanged: the compressor built every
// base layer against full-fidelity anchors, so previews must predict
// from the same reconstructions.
func (s *Server) anchorRegions(ctx context.Context, m *mount, fv *fieldView, rg region) ([]*tensor.Tensor, error) {
	if len(fv.deps) == 0 {
		return nil, nil
	}
	actx, endAnchors := s.metrics.stage(ctx, "anchor_decode", s.metrics.stages.anchorDecode)
	defer endAnchors()
	anchors := make([]*tensor.Tensor, len(fv.deps))
	for k, d := range fv.deps {
		// Anchor recursion is the long pole of a cold dependent decode;
		// stop between anchors once nobody is waiting.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		dv := &m.fieldList[d]
		t, err := s.anchorRegion(actx, m, dv, rg)
		if err != nil {
			return nil, fmt.Errorf("anchor %q: %w", dv.info.Name, err)
		}
		anchors[k] = t
	}
	return anchors, nil
}

// anchorRegion returns anchor field fv's full-fidelity reconstruction
// over rg's slab range, through the same LRUs and recursively for fv's
// own anchors. The manifest graph is a validated DAG, so the recursion
// terminates and cannot self-wait. A whole-field region is fv's whole
// field, from the field LRU. A chunk region decodes only the chunks of fv
// that intersect its range, never the whole anchor field; when one chunk
// covers the range exactly (aligned grids, the common case for archives
// compressed with one chunk size) its cached tensor is returned as is.
func (s *Server) anchorRegion(ctx context.Context, m *mount, fv *fieldView, rg region) (*tensor.Tensor, error) {
	dims := fv.info.Dims
	if rg.start < 0 || rg.start+rg.slabs > dims[0] {
		return nil, fmt.Errorf("slab range [%d,%d) outside field %q axis 0 (%v)",
			rg.start, rg.start+rg.slabs, fv.info.Name, dims)
	}
	slabVox := volume(dims[1:])
	var out []float32
	for _, c := range fv.regionsOver(rg) {
		// Multi-chunk assembly: check between chunk decodes so an
		// abandoned request stops mid-range instead of decoding the rest.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		v, err := s.regionData(ctx, m, fv, c, crossfield.LevelFull)
		if err != nil {
			return nil, err
		}
		if c.start == rg.start && c.slabs == rg.slabs {
			return v.t, nil
		}
		if out == nil {
			out = make([]float32, rg.slabs*slabVox)
		}
		lo, hi := max(rg.start, c.start), min(rg.start+rg.slabs, c.start+c.slabs)
		copy(out[(lo-rg.start)*slabVox:(hi-rg.start)*slabVox],
			v.t.Data()[(lo-c.start)*slabVox:(hi-c.start)*slabVox])
	}
	return tensor.FromSlice(out, fv.regionDims(rg)...)
}

// levelKey derives the cache key of a decode at level: the content key
// (or chunk key) itself for full fidelity, suffixed with the level for a
// preview, so previews and the full-fidelity entry coexist in the same
// LRU without colliding.
func levelKey(key string, level int) string {
	if level == crossfield.LevelFull {
		return key
	}
	return key + "@L" + strconv.Itoa(level)
}

// normLevel maps the deepest progressive level onto LevelFull: both name
// the full-fidelity representation, cached and served under one key.
func (fv *fieldView) normLevel(level int) int {
	if level == fv.levels.Levels-1 {
		return crossfield.LevelFull
	}
	return level
}

// peerChunk fetches chunk ci's full-fidelity bytes from a cluster peer
// through fetch (FetchChunk or RepairChunk) and rebuilds a cacheable
// region value; false means the peer supplied nothing usable. The fetched
// slice doubles as the pre-serialized response body, so a remote hit
// allocates only the decoded floats.
func (s *Server) peerChunk(ctx context.Context, fetch func(context.Context, string, string, string, int, int) ([]byte, bool),
	key string, m *mount, fv *fieldView, ci int, dims []int) (*regionVal, bool) {
	_, endFetch := s.metrics.stage(ctx, "remote_fetch", s.metrics.stages.remoteFetch)
	n := volume(dims)
	raw, ok := fetch(ctx, key, m.name, fv.info.Name, ci, 4*n)
	endFetch()
	if !ok || len(raw) != 4*n {
		return nil, false
	}
	vals := make([]float32, n)
	for i := range vals {
		vals[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[i*4:]))
	}
	t, err := tensor.FromSlice(vals, dims...)
	return &regionVal{t: t, raw: raw, achieved: math.NaN()}, err == nil
}

// admissionWeight constants: a cached decode costs ~8 bytes per voxel
// (4 for the float32 values, 4 for the pre-serialized body).
const bytesPerVoxel = 8

// predictBytes estimates the decode output a cold request for region rg
// of field fv will materialize: the region itself plus every anchor
// region it resolves that is not already resident, transitively. This is
// the manifest-dims cost prediction the admission controller is sized
// in — no payload bytes are read to compute it. Residency probes use
// Contains, which leaves the LRU order and hit counters untouched.
func (s *Server) predictBytes(m *mount, fv *fieldView, rg region) int64 {
	w := int64(bytesPerVoxel) * int64(volume(fv.regionDims(rg)))
	for _, d := range fv.deps {
		dv := &m.fieldList[d]
		for _, c := range dv.regionsOver(rg) {
			if cache, key := s.regionCache(dv, c); !cache.Contains(key) {
				w += s.predictBytes(m, dv, c)
			}
		}
	}
	return w
}

// volume is the voxel count of dims.
func volume(dims []int) int {
	n := 1
	for _, d := range dims {
		n *= d
	}
	return n
}

// admit acquires weight bytes of decode budget for a cold request,
// waiting in the FIFO queue if needed. On failure it writes the shed
// response — 503 with Retry-After, the contract load balancers and the
// cluster router understand — and returns false. The returned release
// must be deferred for the handler's remaining lifetime: the weight
// models decoded bytes pinned by the response, so it is held until the
// body write finishes (or the client goes away and the write fails).
func (s *Server) admit(w http.ResponseWriter, r *http.Request, weight int64) (func(), bool) {
	if s.admission == nil {
		return func() {}, true
	}
	release, err := s.admission.Acquire(r.Context(), weight)
	if err != nil {
		reason := "queue_full"
		if !errors.Is(err, resilience.ErrShed) {
			reason = "deadline"
		}
		s.metrics.shedTotal.With(reason).Inc()
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusServiceUnavailable, "decode admission: %v", err)
		return nil, false
	}
	return release, true
}

// Handler returns the HTTP handler for the whole route surface:
//
//	GET /v1/archives
//	GET /v1/archives/{a}/stats
//	GET /v1/archives/{a}/fields
//	GET /v1/archives/{a}/fields/{f}
//	GET /v1/archives/{a}/fields/{f}/stats
//	GET /v1/archives/{a}/fields/{f}/delta
//	GET /v1/archives/{a}/fields/{f}/chunks/{i}
//	GET /v1/archives/{a}/fields/{f}/chunks/{i}/delta
//	GET /metrics
//
// Field and chunk data routes accept ?eb= (an absolute error bound,
// resolved to the cheapest sufficient progressive level) or ?level= (an
// explicit level index); the delta routes stream the XOR refinement
// between two levels (?from=, optional ?to=, default full), so a client
// holding a preview upgrades it without re-fetching the base bytes.
//
//	GET /debug/trace
//	GET /healthz
//	GET /readyz
//
// Every route is wrapped by the instrument middleware: requests get a
// pooled trace (id in X-CFC-Trace), a per-route/per-status latency
// observation, and a slot in the /debug/trace ring.
func (s *Server) Handler() http.Handler {
	return s.instrument(s.routes())
}

// routes returns the bare mux without instrumentation; the overhead
// benchmark serves it directly to measure the middleware's cost.
func (s *Server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/archives", s.handleArchives)
	mux.HandleFunc("GET /v1/archives/{a}/stats", s.handleArchiveStats)
	mux.HandleFunc("GET /v1/archives/{a}/fields", s.handleFields)
	mux.HandleFunc("GET /v1/archives/{a}/fields/{f}", s.handleRegion)
	mux.HandleFunc("GET /v1/archives/{a}/fields/{f}/stats", s.handleFieldStats)
	mux.HandleFunc("GET /v1/archives/{a}/fields/{f}/delta", s.handleDelta)
	mux.HandleFunc("GET /v1/archives/{a}/fields/{f}/chunks/{i}", s.handleRegion)
	mux.HandleFunc("GET /v1/archives/{a}/fields/{f}/chunks/{i}/delta", s.handleDelta)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/trace", s.handleTrace)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		// Liveness: answers as soon as the process serves HTTP, even while
		// mounts are still mmapping. The cluster router's health checker
		// polls this route to eject and readmit peers.
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		// Readiness: distinct from liveness — stays 503 until every mount
		// is registered, so load balancers don't route data requests at a
		// node that would 404 them mid-mount.
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if !s.ready.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "mounting")
			return
		}
		fmt.Fprintln(w, "ready")
	})
	return mux
}

// archiveJSON is one mount's listing entry.
type archiveJSON struct {
	Name   string `json:"name"`
	Format string `json:"format"`
	Fields int    `json:"fields"`
	Bytes  int    `json:"bytes"`
}

// fieldJSON is one field's manifest record; max_err is null when the
// container predates per-chunk error recording.
type fieldJSON struct {
	Name         string   `json:"name"`
	Dims         []int    `json:"dims"`
	Points       int      `json:"points"`
	Role         string   `json:"role"`
	Anchors      []string `json:"anchors,omitempty"`
	Bound        string   `json:"bound"`
	AbsEB        float64  `json:"abs_eb"`
	MaxErr       *float64 `json:"max_err"`
	Container    string   `json:"container"`
	PayloadBytes int      `json:"payload_bytes"`
	ChecksumCRC  string   `json:"checksum_crc32"`
	Chunks       int      `json:"chunks"`
	// Levels counts the payload's decodable progressive levels (1 when
	// not layered); LevelBounds lists each level's provable absolute
	// error bound, deepest last — the values a client compares its ?eb=
	// against.
	Levels      int       `json:"levels"`
	LevelBounds []float64 `json:"level_bounds,omitempty"`
	ChunkIndex  []chunkJS `json:"chunk_index,omitempty"`
}

// chunkJS is one chunk-index row.
type chunkJS struct {
	Index        int      `json:"index"`
	Start        int      `json:"start"`
	Slabs        int      `json:"slabs"`
	Voxels       int      `json:"voxels"`
	RawBytes     int      `json:"raw_bytes"`
	PayloadBytes int      `json:"payload_bytes"`
	MaxErr       *float64 `json:"max_err"`
}

// archiveStatsJSON is the /v1/archives/{a}/stats body. TopoOrder is the
// dependency order the server decodes fields in — the same order cfc
// -stats prints.
type archiveStatsJSON struct {
	Name      string      `json:"name"`
	Format    string      `json:"format"`
	Bytes     int         `json:"bytes"`
	TopoOrder []string    `json:"topo_order"`
	Fields    []fieldJSON `json:"fields"`
}

func nanToNil(v float64) *float64 {
	if math.IsNaN(v) {
		return nil
	}
	return &v
}

func fieldToJSON(fv *fieldView, withChunks bool) fieldJSON {
	fi := fv.info
	out := fieldJSON{
		Name:         fi.Name,
		Dims:         fi.Dims,
		Points:       volume(fi.Dims),
		Role:         fi.Role,
		Anchors:      fi.Anchors,
		Bound:        fi.Bound.String(),
		AbsEB:        fi.AbsEB,
		MaxErr:       nanToNil(fi.MaxErr),
		Container:    fi.Container,
		PayloadBytes: fi.Bytes,
		ChecksumCRC:  fmt.Sprintf("%08x", fi.Checksum),
		Chunks:       len(fv.chunks),
		Levels:       1,
	}
	if fv.levels != nil {
		out.Levels = fv.levels.Levels
		if fv.levels.Progressive() {
			out.LevelBounds = make([]float64, fv.levels.Levels)
			for l := range out.LevelBounds {
				out.LevelBounds[l] = fv.levels.Bound(l, fi.AbsEB)
			}
		}
	}
	if withChunks {
		out.ChunkIndex = make([]chunkJS, len(fv.chunks))
		for i, c := range fv.chunks {
			out.ChunkIndex[i] = chunkJS{
				Index: i, Start: c.Start, Slabs: c.Slabs, Voxels: c.Voxels,
				RawBytes: c.RawBytes, PayloadBytes: c.PayloadBytes,
				MaxErr: nanToNil(c.MaxErr),
			}
		}
	}
	return out
}

func (s *Server) handleArchives(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	out := make([]archiveJSON, 0, len(s.order))
	for _, name := range s.order {
		m := s.mounts[name]
		out = append(out, archiveJSON{
			Name: name, Format: m.format,
			Fields: len(m.fieldList), Bytes: int(m.size),
		})
	}
	s.mu.RUnlock()
	writeJSON(w, out)
}

func (s *Server) handleArchiveStats(w http.ResponseWriter, r *http.Request) {
	m, _, ok := s.lookup(r.PathValue("a"), "")
	if !ok {
		httpError(w, http.StatusNotFound, "unknown archive %q", r.PathValue("a"))
		return
	}
	out := archiveStatsJSON{
		Name: m.name, Format: m.format, Bytes: int(m.size),
		TopoOrder: make([]string, len(m.topo)),
		Fields:    make([]fieldJSON, len(m.fieldList)),
	}
	for k, i := range m.topo {
		out.TopoOrder[k] = m.fieldList[i].info.Name
	}
	for i := range m.fieldList {
		out.Fields[i] = fieldToJSON(&m.fieldList[i], false)
	}
	writeJSON(w, out)
}

func (s *Server) handleFields(w http.ResponseWriter, r *http.Request) {
	m, _, ok := s.lookup(r.PathValue("a"), "")
	if !ok {
		httpError(w, http.StatusNotFound, "unknown archive %q", r.PathValue("a"))
		return
	}
	out := make([]fieldJSON, len(m.fieldList))
	for i := range m.fieldList {
		out[i] = fieldToJSON(&m.fieldList[i], false)
	}
	writeJSON(w, out)
}

func (s *Server) handleFieldStats(w http.ResponseWriter, r *http.Request) {
	m, i, ok := s.lookup(r.PathValue("a"), r.PathValue("f"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown archive %q or field %q", r.PathValue("a"), r.PathValue("f"))
		return
	}
	writeJSON(w, fieldToJSON(&m.fieldList[i], true))
}

// resolveLevelQuery maps a request's ?eb= / ?level= parameters onto a
// progressive level. ?eb= names an absolute error bound and resolves to
// the cheapest level whose provable bound meets it; a bound tighter than
// every preview — including tighter than the payload's own full bound —
// resolves to full, the best the payload can do. ?level= names a level
// index directly. Non-progressive payloads accept any ?eb= (full is the
// only representation) and only ?level=0. No parameters means full. A
// request resolved to the full-fidelity representation (the deepest
// level, or any level of a non-layered payload) returns LevelFull: it is
// served from the unsuffixed content key with X-CFC-Level "full".
func resolveLevelQuery(r *http.Request, fv *fieldView) (int, error) {
	q := r.URL.Query()
	ebs, lvs := q.Get("eb"), q.Get("level")
	if ebs == "" && lvs == "" {
		return crossfield.LevelFull, nil
	}
	if ebs != "" && lvs != "" {
		return 0, fmt.Errorf("eb and level are mutually exclusive")
	}
	if lvs != "" {
		n, err := strconv.Atoi(lvs)
		if err != nil || n < 0 {
			return 0, fmt.Errorf("malformed level %q", lvs)
		}
		if n >= fv.levels.Levels {
			return 0, fmt.Errorf("level %d out of [0,%d)", n, fv.levels.Levels)
		}
		return fv.normLevel(n), nil
	}
	eb, err := strconv.ParseFloat(ebs, 64)
	if err != nil || !(eb > 0) {
		return 0, fmt.Errorf("malformed eb %q (want a bound > 0)", ebs)
	}
	return fv.normLevel(fv.levels.ResolveLevel(eb, fv.info.AbsEB)), nil
}

// countLevel records one data request against its served level.
func (s *Server) countLevel(level int) {
	if level == crossfield.LevelFull {
		s.metrics.levelFull.Inc()
		return
	}
	s.metrics.levelRequests.With(strconv.Itoa(level)).Inc()
}

// requestRegion resolves a data route's archive, field and region: the
// whole field, or the chunk the {i} path segment names. On failure it
// writes the 404 or 400 and returns false.
func (s *Server) requestRegion(w http.ResponseWriter, r *http.Request) (*mount, *fieldView, region, bool) {
	m, i, ok := s.lookup(r.PathValue("a"), r.PathValue("f"))
	if !ok {
		httpError(w, http.StatusNotFound, "unknown archive %q or field %q", r.PathValue("a"), r.PathValue("f"))
		return nil, nil, region{}, false
	}
	fv := &m.fieldList[i]
	is := r.PathValue("i")
	if is == "" {
		return m, fv, fv.whole(), true
	}
	ci, err := strconv.Atoi(is)
	if err != nil {
		httpError(w, http.StatusBadRequest, "malformed chunk index %q", is)
		return nil, nil, region{}, false
	}
	if ci < 0 || ci >= len(fv.chunks) {
		httpError(w, http.StatusNotFound, "chunk %d out of [0,%d)", ci, len(fv.chunks))
		return nil, nil, region{}, false
	}
	return m, fv, fv.chunkRegion(ci), true
}

// handleRegion serves a whole field or one chunk at the level the query
// negotiates: a resident entry bypasses admission, a cold one is
// admitted at its predicted decode size and decoded through regionData.
func (s *Server) handleRegion(w http.ResponseWriter, r *http.Request) {
	m, fv, rg, ok := s.requestRegion(w, r)
	if !ok {
		return
	}
	level, err := resolveLevelQuery(r, fv)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.countLevel(level)
	cache, key := s.regionCache(fv, rg)
	if v, served, ok := s.peekBypass(r.Context(), cache, key, level); ok {
		s.writeRegion(w, r, fv, rg, key, v.(*regionVal), served)
		return
	}
	release, ok := s.admit(w, r, s.predictBytes(m, fv, rg))
	if !ok {
		return
	}
	defer release()
	v, err := s.regionData(r.Context(), m, fv, rg, level)
	if err != nil {
		decodeError(w, err)
		return
	}
	s.writeRegion(w, r, fv, rg, key, v, level)
}

// peekBypass is the admission-bypass fast path: hot cache hits skip
// admission, since they materialize nothing new, and shedding or queueing
// them would only turn graceful degradation into an outage for the
// traffic the cache exists to make cheap. The resident full-fidelity
// entry is probed first — its error is within every relaxed bound, so it
// satisfies any preview request and is served as level "full" — then the
// requested level's own entry. It returns the hit and the level it holds.
func (s *Server) peekBypass(ctx context.Context, c *Cache, key string, level int) (any, int, bool) {
	served := crossfield.LevelFull
	v, ok := c.Peek(key)
	if !ok && level != crossfield.LevelFull {
		served = level
		v, ok = c.Peek(levelKey(key, level))
	}
	if ok {
		s.metrics.admissionBypass.Inc()
		s.observeBypassLookup(ctx)
	}
	return v, served, ok
}

// observeBypassLookup records the cache_lookup span and stage sample for
// a Peek hit on the admission-bypass fast path, so warm requests keep the
// same trace shape whether they went through admission or around it. Only
// hits record: a Peek miss falls through to regionData, which
// records its own lookup — a miss span here would double-count cold loads.
func (s *Server) observeBypassLookup(ctx context.Context) {
	tr, parent := obs.FromContext(ctx)
	start := time.Now()
	lid := tr.Start(parent, "cache_lookup")
	tr.End(lid)
	s.metrics.stages.cacheLookup.Observe(time.Since(start).Seconds())
}

// writeRegion writes a decoded region response (headers + body). A whole
// field reports its role and the manifest's max error, a chunk its start
// slab and its own max error. level is the served representation:
// LevelFull keys and validates against the unsuffixed cache key,
// previews against the level-suffixed one, so the two representations
// never share an ETag.
func (s *Server) writeRegion(w http.ResponseWriter, r *http.Request, fv *fieldView, rg region, key string, v *regionVal, level int) {
	h := w.Header()
	h.Set("X-CFC-Dims", dimsString(v.t.Shape()))
	maxErr := fv.info.MaxErr
	if rg.chunk == wholeField {
		h.Set("X-CFC-Role", fv.info.Role)
	} else {
		h.Set("X-CFC-Chunk-Start", strconv.Itoa(rg.start))
		maxErr = fv.chunks[rg.chunk].MaxErr
	}
	h.Set("X-CFC-Abs-EB", formatFloat(fv.info.AbsEB))
	if !math.IsNaN(maxErr) {
		h.Set("X-CFC-Max-Err", formatFloat(maxErr))
	}
	if level == crossfield.LevelFull {
		h.Set("X-CFC-Level", "full")
		if !math.IsNaN(maxErr) {
			h.Set("X-CFC-Achieved-EB", formatFloat(maxErr))
		}
	} else {
		h.Set("X-CFC-Level", strconv.Itoa(level))
		h.Set("X-CFC-Achieved-EB", formatFloat(v.achieved))
		h.Set("X-CFC-Level-Bound", formatFloat(fv.levels.Bound(level, fv.info.AbsEB)))
	}
	s.serveRaw(w, r, v.raw, levelKey(key, level))
}

// parseDeltaQuery validates a refinement-delta request: the field must be
// progressive, ?from= names the level the client already holds, and the
// optional ?to= (default: the deepest level) names the level to upgrade
// to. Both are level indices with from < to.
func parseDeltaQuery(r *http.Request, fv *fieldView) (from, to int, err error) {
	spec := fv.levels
	if !spec.Progressive() {
		return 0, 0, fmt.Errorf("field %q has no progressive layers", fv.info.Name)
	}
	q := r.URL.Query()
	fs := q.Get("from")
	if fs == "" {
		return 0, 0, fmt.Errorf("missing from level")
	}
	from, aerr := strconv.Atoi(fs)
	if aerr != nil || from < 0 || from >= spec.Levels-1 {
		return 0, 0, fmt.Errorf("malformed from level %q (want [0,%d))", fs, spec.Levels-1)
	}
	to = spec.Levels - 1
	if ts := q.Get("to"); ts != "" {
		if to, aerr = strconv.Atoi(ts); aerr != nil || to <= from || to >= spec.Levels {
			return 0, 0, fmt.Errorf("malformed to level %q (want (%d,%d))", ts, from, spec.Levels)
		}
	}
	return from, to, nil
}

// xorBody returns to XOR from byte-wise: the refinement delta. XOR is its
// own inverse, so a client holding the from-level body recovers the
// to-level body exactly by XORing the delta over it — and the delta of
// two similar reconstructions is long runs of zero bytes, which the gzip
// content coding then collapses.
func xorBody(to, from []byte) ([]byte, error) {
	if len(to) != len(from) {
		return nil, fmt.Errorf("serve: delta bodies disagree: %d vs %d bytes", len(to), len(from))
	}
	out := make([]byte, len(to))
	for i := range to {
		out[i] = to[i] ^ from[i]
	}
	return out, nil
}

// handleDelta serves the refinement delta of a whole field or one chunk
// between two levels. Both endpoints may decode cold, so admission
// charges one extra region's worth next to the predicted decode. The
// ETag key derives from the cache key plus both endpoints, so deltas,
// previews, and full bodies never share a validator.
func (s *Server) handleDelta(w http.ResponseWriter, r *http.Request) {
	m, fv, rg, ok := s.requestRegion(w, r)
	if !ok {
		return
	}
	from, to, err := parseDeltaQuery(r, fv)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	release, ok := s.admit(w, r, s.predictBytes(m, fv, rg)+int64(bytesPerVoxel)*int64(volume(fv.regionDims(rg))))
	if !ok {
		return
	}
	defer release()
	fromV, err := s.regionData(r.Context(), m, fv, rg, from)
	if err != nil {
		decodeError(w, err)
		return
	}
	toV, err := s.regionData(r.Context(), m, fv, rg, to)
	if err != nil {
		decodeError(w, err)
		return
	}
	body, err := xorBody(toV.raw, fromV.raw)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	h := w.Header()
	if rg.chunk != wholeField {
		h.Set("X-CFC-Chunk-Start", strconv.Itoa(rg.start))
	}
	h.Set("X-CFC-Dims", dimsString(toV.t.Shape()))
	h.Set("X-CFC-Delta-From", strconv.Itoa(from))
	h.Set("X-CFC-Delta-To", strconv.Itoa(to))
	_, key := s.regionCache(fv, rg)
	s.serveRaw(w, r, body, key+"@D"+strconv.Itoa(from)+"-"+strconv.Itoa(to))
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	// Admission gauges are snapshotted at scrape time: the controller is
	// the source of truth, the registry only renders it.
	if s.admission != nil {
		st := s.admission.Stats()
		s.metrics.admissionInflight.Set(st.InFlightBytes)
		s.metrics.admissionCapacity.Set(st.CapacityBytes)
		s.metrics.admissionQueueDepth.Set(int64(st.QueueDepth))
		s.metrics.admissionWaits.Set(st.Waited)
	}
	s.metrics.write(w, s.fields.Stats(), s.chunks.Stats(), s.payloads.Stats())
}

// traceNodeJSON is one span rendered as a tree node; children are the
// spans whose parent index pointed at it.
type traceNodeJSON struct {
	Name     string           `json:"name"`
	StartNs  int64            `json:"start_ns"`
	DurNs    int64            `json:"duration_ns"`
	Children []*traceNodeJSON `json:"children,omitempty"`
}

// traceJSON is one completed request in the /debug/trace body.
type traceJSON struct {
	TraceID string           `json:"trace_id"`
	Label   string           `json:"label"`
	Start   time.Time        `json:"start"`
	DurNs   int64            `json:"duration_ns"`
	Dropped int              `json:"dropped_spans,omitempty"`
	Spans   []*traceNodeJSON `json:"spans"`
}

// spanTree folds the flat parent-indexed span array into nested trees.
// Start claims span slots in call order, so a parent's index is always
// below its children's and one forward pass links everything.
func spanTree(spans []obs.Span) []*traceNodeJSON {
	nodes := make([]*traceNodeJSON, len(spans))
	var roots []*traceNodeJSON
	for i, sp := range spans {
		dur := sp.EndNs - sp.StartNs
		if sp.EndNs == 0 || dur < 0 {
			dur = 0 // span abandoned on an error path
		}
		nodes[i] = &traceNodeJSON{Name: sp.Name, StartNs: sp.StartNs, DurNs: dur}
		if p := int(sp.Parent); p >= 0 && p < i {
			nodes[p].Children = append(nodes[p].Children, nodes[i])
		} else {
			roots = append(roots, nodes[i])
		}
	}
	return roots
}

// handleTrace serves the last completed request traces, newest first,
// each as a nested span tree. ?n= caps the count.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	snaps := s.metrics.ring.Snapshots()
	if q := r.URL.Query().Get("n"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 {
			httpError(w, http.StatusBadRequest, "malformed n %q", q)
			return
		}
		if n < len(snaps) {
			snaps = snaps[:n]
		}
	}
	out := make([]traceJSON, len(snaps))
	for i, sn := range snaps {
		out[i] = traceJSON{
			TraceID: sn.ID, Label: sn.Label, Start: sn.Start,
			DurNs: sn.DurNs, Dropped: sn.Dropped, Spans: spanTree(sn.Spans),
		}
	}
	writeJSON(w, out)
}

// gzipWriters pools gzip compressors across responses, mirroring the
// pooled flate writers of the lossless backend: the ~1.4MB of encoder
// state is reused instead of reallocated per response.
var gzipWriters = sync.Pool{New: func() any { return gzip.NewWriter(io.Discard) }}

// serveRaw writes a pre-serialized little-endian float32 body with
// content negotiation: gzip when the client accepts it (and did not ask
// for a byte range), otherwise http.ServeContent for Range and
// conditional request support. The full cache key becomes a strong ETag,
// with a distinct "-gzip"-suffixed validator for the gzip representation
// (RFC 9110 §8.8.3: different representations of a resource must not
// share a strong ETag, or a later If-Range against a cache holding the
// other encoding could splice ranges of different byte streams).
// If-None-Match accepts either validator — both name the same decoded
// content, so revalidation succeeds regardless of which encoding the
// client cached.
func (s *Server) serveRaw(w http.ResponseWriter, r *http.Request, raw []byte, key string) {
	etag := `"` + key + `"`
	gzETag := `"` + key + `-gzip"`
	h := w.Header()
	h.Set("Content-Type", "application/octet-stream")
	h.Set("Vary", "Accept-Encoding")
	if acceptsGzip(r) && r.Header.Get("Range") == "" {
		h.Set("ETag", gzETag)
		if match := r.Header.Get("If-None-Match"); match != "" &&
			(strings.Contains(match, gzETag) || strings.Contains(match, etag)) {
			w.WriteHeader(http.StatusNotModified)
			return
		}
		h.Set("Content-Encoding", "gzip")
		gz := gzipWriters.Get().(*gzip.Writer)
		gz.Reset(w)
		_, werr := gz.Write(raw)
		cerr := gz.Close()
		gzipWriters.Put(gz)
		if werr == nil {
			werr = cerr
		}
		if werr != nil {
			// Headers are out, so the response cannot change; record the
			// failure instead of discarding it.
			s.metrics.gzipErrors.Inc()
			tr, parent := obs.FromContext(r.Context())
			tr.End(tr.Start(parent, "gzip_write_error"))
		}
		return
	}
	// Identity path (including all Range requests): the unsuffixed ETag,
	// so ServeContent's If-Range comparison only resumes byte ranges
	// against the identity representation — an If-Range carrying the gzip
	// validator falls back to a full 200 instead of splicing mismatched
	// bytes.
	h.Set("ETag", etag)
	h.Set("Accept-Ranges", "bytes")
	http.ServeContent(w, r, "", time.Time{}, bytes.NewReader(raw))
}

// acceptsGzip reports whether the request's Accept-Encoding allows gzip
// with a non-zero quality: an explicit gzip (or x-gzip) entry wins, else
// a "*" wildcard speaks for it (RFC 9110 §12.5.3). "gzip;q=0" and
// "*;q=0" are explicit refusals; a malformed q-value counts as refusal
// rather than silently serving an encoding the client may not handle.
func acceptsGzip(r *http.Request) bool {
	gzipQ, gzipSet := 0.0, false
	starQ, starSet := 0.0, false
	for _, enc := range strings.Split(r.Header.Get("Accept-Encoding"), ",") {
		parts := strings.Split(strings.TrimSpace(enc), ";")
		name := strings.ToLower(strings.TrimSpace(parts[0]))
		if name != "gzip" && name != "x-gzip" && name != "*" {
			continue
		}
		q := 1.0
		for _, p := range parts[1:] {
			if k, v, ok := strings.Cut(strings.TrimSpace(p), "="); ok && strings.EqualFold(strings.TrimSpace(k), "q") {
				parsed, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
				if err != nil {
					parsed = 0
				}
				q = parsed
			}
		}
		if name == "*" {
			starQ, starSet = q, true
		} else {
			gzipQ, gzipSet = q, true
		}
	}
	if gzipSet {
		return gzipQ > 0
	}
	return starSet && starQ > 0
}

func floatBytes(data []float32) []byte {
	out := make([]byte, 4*len(data))
	for i, v := range data {
		binary.LittleEndian.PutUint32(out[i*4:], math.Float32bits(v))
	}
	return out
}

func dimsString(dims []int) string {
	parts := make([]string, len(dims))
	for i, d := range dims {
		parts[i] = strconv.Itoa(d)
	}
	return strings.Join(parts, "x")
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// errorJSON is every non-2xx body.
type errorJSON struct {
	Error string `json:"error"`
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(errorJSON{Error: fmt.Sprintf(format, args...)})
}

// decodeError maps decode failures: blobs whose anchors live outside
// the server are unprocessable rather than server faults; quarantined
// (CRC-mismatched) payloads are a distinct 502 — the mount is a bad
// gateway to the archive's true bytes, not an overloaded server; a
// request whose deadline or client expired mid-decode answers 503 with
// Retry-After (the bytes are fine, the attempt simply ran out of time).
func decodeError(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, core.ErrNeedAnchors):
		code = http.StatusUnprocessableEntity
	case errors.Is(err, ErrCorruptPayload) || errors.Is(err, crossfield.ErrChecksum),
		errors.Is(err, crossfield.ErrLayerChecksum):
		// A progressive layer failing its own CRC is the same bad-gateway
		// story: layers verify independently, so every level below the
		// damaged one keeps serving.
		code = http.StatusBadGateway
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		code = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", "1")
	}
	httpError(w, code, "%v", err)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
