package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"time"

	crossfield "repro"
	"repro/internal/serve"
	"repro/internal/tensor"
)

const (
	mountName = "hur"
	target    = "Wf" // the paper's Hurricane dependent, hybrid over Uf, Vf, Pf
)

// readSpec is what distinguishes the read workloads.
type readSpec struct {
	encoding string       // Accept-Encoding of every request
	cache    serve.Config // cache budgets
	chunks   bool         // GET Wf's chunks rather than the whole field
	hot      bool         // every field resident: no request decodes
}

func readSpecFor(workload string) readSpec {
	off := serve.Config{FieldCacheBytes: -1, ChunkCacheBytes: -1, PayloadCacheBytes: -1}
	switch workload {
	case "hot":
		return readSpec{encoding: "gzip", hot: true}
	case "cold-chunk":
		return readSpec{encoding: "identity", cache: off, chunks: true}
	default:
		return readSpec{encoding: "identity", cache: off}
	}
}

// request is one kind of GET the workload sends, with the body the
// library decodes for it and the anchors its CFNN pass runs on.
type request struct {
	path    string
	want    []byte
	anchors []*tensor.Tensor // nil when the request runs no inference
}

// readSetup is everything a read workload's timed loop needs.
type readSetup struct {
	specs    []crossfield.FieldSpec
	res      *crossfield.CompressedDataset
	codec    *crossfield.Codec
	file     string
	requests []request
	untraced *harness
	traced   *harness // nil in an untraced run
	stages   crossfield.DatasetTimings
	times    setupTimes
}

func (rs *readSetup) close() error {
	var errs []error
	for _, h := range []*harness{rs.untraced, rs.traced} {
		if h != nil {
			errs = append(errs, h.close())
		}
	}
	errs = append(errs, os.Remove(rs.file))
	return errors.Join(errs...)
}

// setupRead generates the Hurricane snapshot, trains the Wf codec (or
// reuses prev's), packs the four fields into a chunked archive, mounts the
// archive file in the server(s), decodes the expected bodies through the
// library, and sends the discarded warm-up requests.
func setupRead(cfg config, sz sizes, spec readSpec, n int, prev *readSetup) (rs *readSetup, err error) {
	rs = &readSetup{file: filepath.Join(cfg.workdir, fmt.Sprintf("hurricane-%d-%d.cfc", os.Getpid(), n))}
	defer func() {
		if err != nil {
			rs.close()
		}
	}()
	t := time.Now()
	ds, err := crossfield.GenerateHurricane(sz.hurNZ, sz.hurNY, sz.hurNX, cfg.seed)
	if err != nil {
		return rs, err
	}
	rs.times.generate = lap(&t)
	var plan crossfield.AnchorPlan
	for _, p := range crossfield.PaperPlans() {
		if p.Preset == "hurricane-wf" {
			plan = p
		}
	}
	anchors, err := ds.Fieldset(plan.Anchors...)
	if err != nil {
		return rs, err
	}
	if prev != nil {
		rs.codec = prev.codec
	} else if rs.codec, err = crossfield.Train(ds.MustField(target), anchors, training(sz, cfg.seed)); err != nil {
		return rs, fmt.Errorf("train %s: %w", target, err)
	}
	rs.times.train = lap(&t)
	for _, a := range anchors {
		rs.specs = append(rs.specs, crossfield.FieldSpec{Field: a})
	}
	rs.specs = append(rs.specs, crossfield.FieldSpec{Field: ds.MustField(target), Codec: rs.codec})
	opts := []crossfield.Option{crossfield.WithChunks(sz.hurChunkSlabs * sz.hurNY * sz.hurNX)}
	if cfg.trace {
		opts = append(opts, crossfield.WithStageTimings(&rs.stages))
	}
	if rs.res, err = crossfield.CompressDataset(rs.specs, crossfield.Rel(relBound), opts...); err != nil {
		return rs, err
	}
	rs.times.pack = lap(&t)
	if err := os.WriteFile(rs.file, rs.res.Blob, 0o644); err != nil {
		return rs, err
	}
	if rs.untraced, err = startHarness(withRing(spec.cache, -1), mountName, rs.file); err != nil {
		return rs, err
	}
	if cfg.trace {
		if rs.traced, err = startHarness(withRing(spec.cache, 0), mountName, rs.file); err != nil {
			return rs, err
		}
	}
	rs.times.mount = lap(&t)
	if err := rs.expect(spec); err != nil {
		return rs, err
	}
	for _, h := range []*harness{rs.untraced, rs.traced} {
		if h != nil {
			if err := rs.warm(h, spec, sz.warmups); err != nil {
				return rs, err
			}
		}
	}
	rs.times.warm = lap(&t)
	return rs, nil
}

// withRing sets the /debug/trace ring size: negative disables it.
func withRing(c serve.Config, ring int) serve.Config {
	c.TraceRing = ring
	return c
}

// expect decodes, through the library rather than the server, the body
// every request kind must return.
func (rs *readSetup) expect(spec readSpec) error {
	ar, err := crossfield.OpenArchive(rs.res.Blob)
	if err != nil {
		return err
	}
	wf, err := ar.Field(target)
	if err != nil {
		return err
	}
	info, _ := ar.FieldInfoFor(target)
	var anchors []*crossfield.Field
	for _, a := range info.Anchors {
		f, err := ar.Field(a)
		if err != nil {
			return err
		}
		anchors = append(anchors, f)
	}
	field := "/v1/archives/" + mountName + "/fields/" + target
	if !spec.chunks {
		rs.requests = []request{{path: field, want: leBytes(wf.Data())}}
		if !spec.hot {
			rs.requests[0].anchors = tensors(anchors)
		}
		return nil
	}
	payload, err := ar.FieldPayload(target)
	if err != nil {
		return err
	}
	n, err := crossfield.ChunkCount(payload)
	if err != nil {
		return err
	}
	for ci := range n {
		c, start, err := crossfield.DecompressChunk(target, payload, ci, anchors)
		if err != nil {
			return err
		}
		// The chunk's CFNN pass runs on the anchors' matching slabs.
		dims := c.Dims()
		plane := c.Len() / dims[0]
		var slabs []*tensor.Tensor
		for _, a := range anchors {
			s, err := crossfield.NewField(a.Name, a.Data()[start*plane:start*plane+c.Len()], dims...)
			if err != nil {
				return err
			}
			slabs = append(slabs, s.Tensor())
		}
		rs.requests = append(rs.requests, request{path: fmt.Sprintf("%s/chunks/%d", field, ci), want: leBytes(c.Data()), anchors: slabs})
	}
	return nil
}

func tensors(fs []*crossfield.Field) []*tensor.Tensor {
	out := make([]*tensor.Tensor, len(fs))
	for i, f := range fs {
		out[i] = f.Tensor()
	}
	return out
}

// warm sends the discarded warm-up requests, checking their bodies too.
// The hot workload first GETs every field, so all four are resident.
func (rs *readSetup) warm(h *harness, spec readSpec, n int) error {
	if spec.hot {
		for _, s := range rs.specs {
			r, err := h.get("/v1/archives/"+mountName+"/fields/"+s.Field.Name, "identity", "")
			if err != nil {
				return err
			}
			if r.status != http.StatusOK {
				return fmt.Errorf("warm-up GET %s: status %d", s.Field.Name, r.status)
			}
		}
	}
	for i := range n {
		req := rs.requests[i%len(rs.requests)]
		r, err := h.get(req.path, spec.encoding, "")
		if err != nil {
			return err
		}
		if r.status != http.StatusOK || !bytes.Equal(r.body, req.want) {
			return fmt.Errorf("warm-up GET %s: status %d or wrong body", req.path, r.status)
		}
	}
	return nil
}

// runRead drives one read workload. An untraced run sends every request to
// a server with its trace ring off. A traced run sends each request first
// to a traced server, pulls its span tree, then repeats it on the untraced
// server, so both latencies come from the same conditions.
func runRead(cfg config, sz sizes) (rep *report, err error) {
	rep = newReport()
	spec := readSpecFor(cfg.workload)
	var (
		rs  *readSetup
		all []setupTimes
	)
	for range sz.setups {
		if rs != nil {
			if err := rs.close(); err != nil {
				return nil, err
			}
		}
		if rs, err = setupRead(cfg, sz, spec, len(all), rs); err != nil {
			return nil, err
		}
		all = append(all, rs.times)
	}
	defer func() {
		if cerr := rs.close(); err == nil && cerr != nil {
			rep, err = nil, cerr
		}
	}()
	reportSetups(rep, all)

	rng := rand.New(rand.NewPCG(uint64(cfg.seed), 0x9e3779b97f4a7c15))
	var order []int
	next := func() request {
		if len(order) == 0 {
			order = rng.Perm(len(rs.requests))
		}
		i := order[0]
		order = order[1:]
		return rs.requests[i]
	}
	// send issues one timed GET and checks its body against the library's.
	var decoded, wire int64
	send := func(h *harness, req request, traceID string) (reply, bool, error) {
		rep.attempted++
		r, err := h.get(req.path, spec.encoding, traceID)
		if err != nil || r.status != http.StatusOK {
			rep.failed++
			return r, false, nil
		}
		if !bytes.Equal(r.body, req.want) {
			return r, false, fmt.Errorf("GET %s: body differs from the library's decode", req.path)
		}
		return r, true, nil
	}

	var (
		plain, traced []float64 // client latency, ms
		infer         []float64 // own PredictDiffs calls, ms
		ls            layerSamples
		tracedSent    int
	)
	// The traced layers reconcile against the untraced server's own
	// request-latency histogram.
	route := "/v1/archives/{a}/fields/{f}"
	if spec.chunks {
		route += "/chunks/{i}"
	}
	served := rs.untraced.srv.RequestLatency(route, "200")
	before := cacheStats(rs.traced)
	ws, err := window(cfg.seconds, func(i int) error {
		req := next()
		if rs.traced != nil {
			tracedSent++
			id := fmt.Sprintf("%016x", uint64(cfg.seed)<<32|uint64(i+1))
			r, ok, err := send(rs.traced, req, id)
			if err != nil {
				return err
			}
			if ok {
				doc, err := rs.traced.trace(id)
				if err != nil {
					return err
				}
				lt, err := layersOf(doc)
				if err != nil {
					return err
				}
				traced = append(traced, ms(r.latency))
				ls.all = append(ls.all, lt)
				ls.client = append(ls.client, ms(r.latency)-lt.request)
			}
			if req.anchors != nil {
				start := time.Now()
				if _, err := rs.codec.Model().PredictDiffs(req.anchors); err != nil {
					return err
				}
				infer = append(infer, ms(time.Since(start)))
			}
		}
		r, ok, err := send(rs.untraced, req, "")
		if err != nil || !ok {
			return err
		}
		plain = append(plain, ms(r.latency))
		decoded += int64(len(r.body))
		wire += r.wire
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, h := range []*harness{rs.untraced, rs.traced} {
		if h != nil && h.ln.accepted.Load() != 1 {
			return nil, fmt.Errorf("the run used %d connections to one server, want 1 reused connection", h.ln.accepted.Load())
		}
	}

	rep.set("p50_ms", quantile(plain, 0.5))
	rep.set("p90_ms", quantile(plain, 0.9))
	rep.set("mib_per_s", float64(decoded)/(1<<20)/ws.elapsed.Seconds())
	if len(plain) > 0 {
		rep.set("wire_kib_per_op", float64(wire)/1024/float64(len(plain)))
		rep.set("ratio", float64(decoded)/float64(wire))
	}
	rep.set("peak_rss_mb", ws.peakRSS)
	rep.env["cpu_steal_frac"] = ws.steal
	if err := reportArchive(rep, rs.specs, rs.res.Stats, crossfield.WithChunks(sz.hurChunkSlabs*sz.hurNY*sz.hurNX)); err != nil {
		return nil, err
	}
	rep.env["grid"] = fmt.Sprintf("Hurricane %dx%dx%d, fields Uf Vf Pf %s, chunks of %d slabs", sz.hurNZ, sz.hurNY, sz.hurNX, target, sz.hurChunkSlabs)
	rep.env["samples"] = len(plain)
	rep.env["accept_encoding"] = spec.encoding
	if !cfg.trace {
		return rep, nil
	}

	reportCaches(rep, before, cacheStats(rs.traced))
	// Warm-ups are admitted one at a time and never shed, so every shed
	// the controller counts fell in the window.
	rep.set("serve.shed_frac", float64(rs.traced.srv.AdmissionStats().Shed)/float64(tracedSent))
	rep.set("cfnn.infer_ms.p50", median(infer))
	rep.set("trace.overhead_ms", median(traced)-median(plain))
	for s, v := range stageSeconds(&rs.stages) {
		rep.set("core.compress."+s+"_s", v)
	}
	hist := rs.untraced.srv.RequestLatency(route, "200").Sub(served)
	serverMean := hist.Sum / float64(hist.Count) * 1e3
	// The requests' bodies partition the field: one whole field, or its
	// equal chunks.
	var fieldBytes int
	for _, r := range rs.requests {
		fieldBytes += len(r.want)
	}
	fieldMiB := float64(fieldBytes) / (1 << 20)
	chunkMiB := float64(len(rs.requests[0].want)) / (1 << 20)
	return rep, reportLayers(rep, &ls, serverMean, median(plain), chunkMiB, fieldMiB)
}

// cacheStats snapshots a server's three caches (nil harness: zero).
func cacheStats(h *harness) [3]serve.CacheStats {
	if h == nil {
		return [3]serve.CacheStats{}
	}
	return [3]serve.CacheStats{h.srv.FieldCacheStats(), h.srv.ChunkCacheStats(), h.srv.PayloadCacheStats()}
}

// reportCaches records each cache's hit ratio over the window and what the
// field cache holds at its end.
func reportCaches(rep *report, before, after [3]serve.CacheStats) {
	for i, name := range []string{"field", "chunk", "payload"} {
		d := serve.CacheStats{
			Hits:      after[i].Hits - before[i].Hits,
			Misses:    after[i].Misses - before[i].Misses,
			Coalesced: after[i].Coalesced - before[i].Coalesced,
		}
		rep.set("serve."+name+"_cache.hit_ratio", d.HitRatio())
	}
	if f := after[0]; f.Entries > 0 {
		rep.set("serve.field_cache.bytes_per_entry", float64(f.Bytes)/float64(f.Entries))
	}
	resident := after[0].Bytes + after[1].Bytes + after[2].Bytes
	rep.set("serve.resident_mb", float64(resident)/(1<<20))
}
