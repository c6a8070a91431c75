package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// metricsState holds the server's observability surface: the legacy
// scalar counters, the labeled request/stage latency histograms exposed
// at /metrics, the trace pool behind X-CFC-Trace, and the completed-trace
// ring behind /debug/trace. Cache counters live in the caches themselves
// and are merged in at scrape time.
type metricsState struct {
	requests    atomic.Int64
	bytesServed atomic.Int64
	decodes     atomic.Int64
	decodeNanos atomic.Int64

	reg        *obs.Registry
	reqSeconds *obs.HistogramVec // route, code
	stageHist  *obs.HistogramVec // stage
	// Pre-resolved stage children so hot-path observation is one atomic
	// add, never a labels-to-child map lookup.
	stages struct {
		cacheLookup  *obs.Histogram
		payloadRead  *obs.Histogram
		anchorDecode *obs.Histogram
		chunkDecode  *obs.Histogram
		fieldDecode  *obs.Histogram
		remoteFetch  *obs.Histogram
	}
	// remoteHits/remoteMisses are the pre-resolved children of
	// cfserve_remote_fetch_total: outcomes of the cluster peer-fetch path.
	remoteHits   *obs.Counter
	remoteMisses *obs.Counter
	// gzipErrors counts gzip response bodies that failed mid-write
	// (client gone, or a compressor error) — previously discarded.
	gzipErrors *obs.Counter
	// Admission-control surface: gauges snapshotted from the controller
	// at scrape time, plus the bypass/shed counters.
	admissionInflight   *obs.Gauge
	admissionCapacity   *obs.Gauge
	admissionQueueDepth *obs.Gauge
	admissionWaits      *obs.Gauge
	admissionBypass     *obs.Counter
	shedTotal           *obs.CounterVec // reason: queue_full | deadline
	// levelRequests counts field/chunk data requests by the progressive
	// level they resolved to; levelFull is its pre-resolved "full" child
	// (the deepest level, and the only level of non-layered payloads).
	levelRequests *obs.CounterVec // level: full | 0 | 1 | ...
	levelFull     *obs.Counter
	// corruptPayloads counts payloads quarantined by a CRC mismatch;
	// repairHits/repairFailures are the outcomes of peer repair attempts.
	corruptPayloads *obs.Counter
	repairHits      *obs.Counter
	repairFailures  *obs.Counter
	traces          *obs.TracePool
	ring            *obs.TraceRing

	// reqHot caches resolved (route, code) histogram children behind an
	// array-valued key, so steady-state requests skip the label-join the
	// vec's own lookup would allocate.
	reqMu  sync.RWMutex
	reqHot map[[2]string]*obs.Histogram

	accessLog io.Writer
	logMu     sync.Mutex
}

// latencyBuckets spans ~8µs to ~3.4s in ×1.5 steps: fine enough for
// interpolated p50/p99 on cache hits, wide enough for cold multi-chunk
// anchor decodes.
func latencyBuckets() []float64 { return obs.ExpBuckets(8e-6, 1.5, 32) }

func (m *metricsState) init(traceSpans, traceRing int, accessLog io.Writer) {
	m.reg = obs.NewRegistry()
	b := latencyBuckets()
	m.reqSeconds = m.reg.HistogramVec("cfserve_request_seconds",
		"HTTP request latency by route pattern and status code.", b, "route", "code")
	m.stageHist = m.reg.HistogramVec("cfserve_stage_seconds",
		"Serve-path stage latency (leader-only for decode stages).", b, "stage")
	m.stages.cacheLookup = m.stageHist.With("cache_lookup")
	m.stages.payloadRead = m.stageHist.With("payload_read")
	m.stages.anchorDecode = m.stageHist.With("anchor_decode")
	m.stages.chunkDecode = m.stageHist.With("chunk_decode")
	m.stages.fieldDecode = m.stageHist.With("field_decode")
	m.stages.remoteFetch = m.stageHist.With("remote_fetch")
	rf := m.reg.CounterVec("cfserve_remote_fetch_total",
		"Cluster peer chunk fetches by outcome (hit = decoded bytes came from the owning peer).", "outcome")
	m.remoteHits = rf.With("hit")
	m.remoteMisses = rf.With("miss")
	m.gzipErrors = m.reg.Counter("cfserve_gzip_write_errors_total",
		"gzip response bodies that failed mid-write (client disconnect or compressor error).")
	m.admissionInflight = m.reg.Gauge("cfserve_admission_inflight_bytes",
		"Predicted decode output bytes currently admitted (never exceeds the budget).")
	m.admissionCapacity = m.reg.Gauge("cfserve_admission_capacity_bytes",
		"Configured decode budget (-decode-budget-mb).")
	m.admissionQueueDepth = m.reg.Gauge("cfserve_admission_queue_depth",
		"Cold requests waiting for decode budget.")
	m.admissionWaits = m.reg.Gauge("cfserve_admission_waits",
		"Cumulative requests that queued for decode budget before admission.")
	m.admissionBypass = m.reg.Counter("cfserve_admission_bypass_total",
		"Hot cache hits served without consulting the admission controller.")
	m.shedTotal = m.reg.CounterVec("cfserve_shed_total",
		"Requests shed with 503 + Retry-After, by reason.", "reason")
	m.levelRequests = m.reg.CounterVec("cfserve_level_requests_total",
		"Field and chunk data requests by resolved progressive level (full = deepest, or non-layered).", "level")
	m.levelFull = m.levelRequests.With("full")
	m.corruptPayloads = m.reg.Counter("cfserve_corrupt_payload_total",
		"Payloads quarantined after a CRC mismatch (served as 502 until remounted).")
	repairs := m.reg.CounterVec("cfserve_repair_total",
		"Peer repair attempts for quarantined payloads, by outcome.", "outcome")
	m.repairHits = repairs.With("hit")
	m.repairFailures = repairs.With("miss")
	m.traces = obs.NewTracePool(traceSpans)
	if traceRing >= 0 {
		m.ring = obs.NewTraceRing(traceRing)
	}
	m.reqHot = make(map[[2]string]*obs.Histogram)
	m.accessLog = accessLog
}

// requestHistogram resolves the cfserve_request_seconds child for one
// (route, code) pair without allocating on repeat visits.
func (m *metricsState) requestHistogram(route, code string) *obs.Histogram {
	k := [2]string{route, code}
	m.reqMu.RLock()
	h := m.reqHot[k]
	m.reqMu.RUnlock()
	if h != nil {
		return h
	}
	h = m.reqSeconds.With(route, code)
	m.reqMu.Lock()
	m.reqHot[k] = h
	m.reqMu.Unlock()
	return h
}

// statusLabel formats the handful of status codes this server emits
// without allocating.
func statusLabel(code int) string {
	switch code {
	case http.StatusOK:
		return "200"
	case http.StatusPartialContent:
		return "206"
	case http.StatusNotModified:
		return "304"
	case http.StatusBadRequest:
		return "400"
	case http.StatusNotFound:
		return "404"
	case http.StatusRequestedRangeNotSatisfiable:
		return "416"
	case http.StatusUnprocessableEntity:
		return "422"
	case http.StatusInternalServerError:
		return "500"
	case http.StatusBadGateway:
		return "502"
	case http.StatusServiceUnavailable:
		return "503"
	}
	return strconv.Itoa(code)
}

func (m *metricsState) observeDecode(d time.Duration) {
	m.decodes.Add(1)
	m.decodeNanos.Add(int64(d))
}

// stage opens a span named like the stage and times it into the stage
// histogram; the returned context parents nested stages and the closer
// ends both. Decode-path callers invoke it inside cache compute closures,
// so stage times are recorded by the singleflight leader only.
func (m *metricsState) stage(ctx context.Context, name string, h *obs.Histogram) (context.Context, func()) {
	sctx, end := obs.StartSpan(ctx, name)
	start := time.Now()
	return sctx, func() {
		end()
		h.Observe(time.Since(start).Seconds())
	}
}

// StageLatency snapshots the per-stage latency histograms, keyed by stage
// name ("cache_lookup", "payload_read", "anchor_decode", "chunk_decode",
// "field_decode", "remote_fetch"). They are the same histograms /metrics
// exports as cfserve_stage_seconds.
func (s *Server) StageLatency() map[string]obs.HistogramSnapshot {
	m := &s.metrics
	return map[string]obs.HistogramSnapshot{
		"cache_lookup":  m.stages.cacheLookup.Snapshot(),
		"payload_read":  m.stages.payloadRead.Snapshot(),
		"anchor_decode": m.stages.anchorDecode.Snapshot(),
		"chunk_decode":  m.stages.chunkDecode.Snapshot(),
		"field_decode":  m.stages.fieldDecode.Snapshot(),
		"remote_fetch":  m.stages.remoteFetch.Snapshot(),
	}
}

// RemoteFetches returns the cluster peer-fetch outcome counters: hits
// served decoded bytes from the owning peer, misses fell back to a local
// decode.
func (s *Server) RemoteFetches() (hits, misses int64) {
	return s.metrics.remoteHits.Value(), s.metrics.remoteMisses.Value()
}

// LevelRequests returns the cfserve_level_requests_total child for one
// level label ("full", "0", "1", ...). Progressive serving tests pin
// level resolution and cache-key separation through it.
func (s *Server) LevelRequests(label string) int64 {
	return s.metrics.levelRequests.With(label).Value()
}

// RequestLatency snapshots the request-latency histogram for one route
// pattern (as labeled in cfserve_request_seconds, e.g.
// "/v1/archives/{a}/fields/{f}") and status code.
func (s *Server) RequestLatency(route, code string) obs.HistogramSnapshot {
	return s.metrics.reqSeconds.With(route, code).Snapshot()
}

// recorder wraps the ResponseWriter to tally bytes and capture the
// status code, while keeping the underlying writer's optional interfaces
// reachable: Flush delegates to an underlying http.Flusher (streaming
// handlers keep working when instrumented), ReadFrom delegates to an
// underlying io.ReaderFrom (sendfile-style copies stay on the fast
// path), and Unwrap supports http.NewResponseController.
type recorder struct {
	http.ResponseWriter
	total   *atomic.Int64
	written int64
	status  int
}

func (w *recorder) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *recorder) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.written += int64(n)
	w.total.Add(int64(n))
	return n, err
}

func (w *recorder) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// writerOnly hides ReadFrom on the fallback path so io.Copy below cannot
// recurse back into recorder.ReadFrom.
type writerOnly struct{ io.Writer }

func (w *recorder) ReadFrom(r io.Reader) (int64, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	var (
		n   int64
		err error
	)
	if rf, ok := w.ResponseWriter.(io.ReaderFrom); ok {
		n, err = rf.ReadFrom(r)
	} else {
		n, err = io.Copy(writerOnly{w.ResponseWriter}, r)
	}
	w.written += n
	w.total.Add(n)
	return n, err
}

func (w *recorder) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// routeLabel maps a matched mux pattern ("GET /v1/archives/{a}") to the
// low-cardinality route label; unmatched requests collapse to "other" so
// scanners cannot mint unbounded label values from 404 paths.
func routeLabel(pattern string) string {
	if pattern == "" {
		return "other"
	}
	if _, after, ok := strings.Cut(pattern, " "); ok {
		return after
	}
	return pattern
}

// instrument wraps the route mux with the request-level observability:
// a pooled trace (id surfaced as X-CFC-Trace), the per-route/per-status
// latency histogram, byte/request counters, the completed-trace ring,
// and the optional JSON access log.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		m := &s.metrics
		m.requests.Add(1)
		start := time.Now()
		tr := m.traces.Get()
		// A valid inbound X-CFC-Trace is adopted, not replaced: the router
		// (or any upstream hop) mints one id and every node on the request's
		// path records under it, so /debug/trace entries across the cluster
		// correlate by id.
		if id, ok := obs.ParseTraceID(r.Header.Get("X-CFC-Trace")); ok {
			tr.SetID(id)
		}
		root := tr.Start(obs.NoSpan, "request")
		w.Header().Set("X-CFC-Trace", tr.IDString())
		rec := &recorder{ResponseWriter: w, total: &m.bytesServed}
		// Keep the derived request: ServeMux writes the matched pattern
		// into the request it is handed, so the label is known after next
		// returns without wrapping every handler.
		ctx := obs.ContextWithSpan(r.Context(), tr, root)
		if r.Header.Get("X-CFC-Internal") != "" {
			// A cluster-internal fetch: this node must decode locally, never
			// hop to another peer (bounds every request at one hop).
			ctx = suppressRemote(ctx)
		}
		if s.requestTimeout > 0 {
			// End-to-end deadline: the context reaches queued admission
			// waits and cancellation-checked decodes; the connection write
			// deadline is what unsticks a handler mid-body when the client
			// stops reading (a hung write fails, the handler returns, and
			// its deferred admission release runs). Listeners that cannot
			// set deadlines (httptest recorders) just skip that half.
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.requestTimeout)
			defer cancel()
			rc := http.NewResponseController(w)
			_ = rc.SetWriteDeadline(time.Now().Add(s.requestTimeout))
		}
		r2 := r.WithContext(ctx)
		next.ServeHTTP(rec, r2)
		tr.End(root)
		dur := time.Since(start)
		code := rec.status
		if code == 0 {
			code = http.StatusOK
		}
		route := routeLabel(r2.Pattern)
		status := statusLabel(code)
		m.requestHistogram(route, status).Observe(dur.Seconds())
		if m.ring != nil {
			m.ring.Push(r.Method+" "+r.URL.Path+" "+status, dur.Nanoseconds(), tr)
		}
		if m.accessLog != nil {
			m.writeAccessLog(r, tr.IDString(), route, code, rec.written, dur)
		}
		m.traces.Put(tr)
	})
}

// accessRecord is one structured access-log line.
type accessRecord struct {
	Time    string  `json:"time"`
	Trace   string  `json:"trace"`
	Method  string  `json:"method"`
	Path    string  `json:"path"`
	Route   string  `json:"route"`
	Status  int     `json:"status"`
	Bytes   int64   `json:"bytes"`
	DurMs   float64 `json:"dur_ms"`
	Remote  string  `json:"remote,omitempty"`
	TraceIn string  `json:"parent_trace,omitempty"` // inbound X-CFC-Trace, if a client propagated one
}

func (m *metricsState) writeAccessLog(r *http.Request, traceID, route string, code int, bytes int64, dur time.Duration) {
	rec := accessRecord{
		Time:    time.Now().UTC().Format(time.RFC3339Nano),
		Trace:   traceID,
		Method:  r.Method,
		Path:    r.URL.Path,
		Route:   route,
		Status:  code,
		Bytes:   bytes,
		DurMs:   float64(dur.Nanoseconds()) / 1e6,
		Remote:  r.RemoteAddr,
		TraceIn: r.Header.Get("X-CFC-Trace"),
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return
	}
	line = append(line, '\n')
	m.logMu.Lock()
	m.accessLog.Write(line)
	m.logMu.Unlock()
}

func (m *metricsState) write(w io.Writer, fields, chunks, payloads CacheStats) {
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	counter("cfserve_requests_total", "HTTP requests handled.", m.requests.Load())
	counter("cfserve_bytes_served_total", "Response bytes written.", m.bytesServed.Load())
	counter("cfserve_decodes_total", "Field and chunk decompressions executed.", m.decodes.Load())
	fmt.Fprintf(w, "# HELP cfserve_decode_seconds_total Time spent decompressing.\n"+
		"# TYPE cfserve_decode_seconds_total counter\ncfserve_decode_seconds_total %g\n",
		time.Duration(m.decodeNanos.Load()).Seconds())
	// One HELP/TYPE block per metric name, then one sample per cache label,
	// as the exposition format requires.
	labeled := func(name, help, kind string, pick func(CacheStats) int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, kind)
		fmt.Fprintf(w, "%s{cache=\"field\"} %d\n", name, pick(fields))
		fmt.Fprintf(w, "%s{cache=\"chunk\"} %d\n", name, pick(chunks))
		fmt.Fprintf(w, "%s{cache=\"payload\"} %d\n", name, pick(payloads))
	}
	labeled("cfserve_cache_hits_total", "Cache lookups served from a resident entry.", "counter",
		func(s CacheStats) int64 { return s.Hits })
	labeled("cfserve_cache_misses_total", "Cache lookups that ran a decode.", "counter",
		func(s CacheStats) int64 { return s.Misses })
	labeled("cfserve_cache_coalesced_total", "Cache lookups that waited on an in-flight decode.", "counter",
		func(s CacheStats) int64 { return s.Coalesced })
	labeled("cfserve_cache_evictions_total", "Entries evicted to respect the byte budget.", "counter",
		func(s CacheStats) int64 { return s.Evictions })
	labeled("cfserve_cache_entries", "Resident cache entries.", "gauge",
		func(s CacheStats) int64 { return int64(s.Entries) })
	labeled("cfserve_cache_bytes", "Resident cache value bytes.", "gauge",
		func(s CacheStats) int64 { return s.Bytes })
	labeled("cfserve_cache_capacity_bytes", "Cache byte budget.", "gauge",
		func(s CacheStats) int64 { return s.Capacity })
	// The histogram families (cfserve_request_seconds, cfserve_stage_seconds)
	// follow from the registry.
	m.reg.WritePrometheus(w)
}
