package serve_test

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"

	crossfield "repro"
	"repro/internal/serve"
)

// buildProgressiveBlob packs the test dataset into a layered CFC3 archive
// (chunked layered payloads, three decodable levels per field).
func buildProgressiveBlob(t *testing.T) []byte {
	t.Helper()
	target, anchors := testDataset(t)
	codec, err := crossfield.Train(target, anchors, crossfield.Training{
		Features: 6, Epochs: 4, StepsPerEpoch: 8, Batch: 1, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	specs := []crossfield.FieldSpec{
		{Field: anchors[0]}, {Field: anchors[1]}, {Field: anchors[2]},
		{Field: target, Codec: codec},
	}
	res, err := crossfield.CompressDataset(specs, crossfield.Rel(1e-3),
		crossfield.WithChunks(2*slabVoxels), crossfield.WithProgressive(3))
	if err != nil {
		t.Fatal(err)
	}
	return res.Blob
}

var (
	progBlobOnce sync.Once
	progBlob     []byte
)

func sharedProgressiveBlob(t *testing.T) []byte {
	t.Helper()
	progBlobOnce.Do(func() { progBlob = buildProgressiveBlob(t) })
	if progBlob == nil {
		t.Fatal("progressive archive construction failed earlier")
	}
	return progBlob
}

func newProgressiveServer(t *testing.T, cfg serve.Config) (*serve.Server, *httptest.Server) {
	t.Helper()
	s := serve.New(cfg)
	if err := s.Mount("prog", sharedProgressiveBlob(t)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// fieldStatsLevels fetches one field's level metadata from its stats route.
func fieldStatsLevels(t *testing.T, ts *httptest.Server, field string) (levels int, bounds []float64, absEB float64) {
	t.Helper()
	var fj struct {
		Levels      int       `json:"levels"`
		LevelBounds []float64 `json:"level_bounds"`
		AbsEB       float64   `json:"abs_eb"`
	}
	getJSON(t, ts, "/v1/archives/prog/fields/"+field+"/stats", &fj)
	return fj.Levels, fj.LevelBounds, fj.AbsEB
}

func maxAbsErr(got, want []float32) float64 {
	m := 0.0
	for i := range got {
		if d := math.Abs(float64(got[i]) - float64(want[i])); d > m {
			m = d
		}
	}
	return m
}

func TestProgressiveStatsReportLevels(t *testing.T) {
	_, ts := newProgressiveServer(t, serve.Config{})
	levels, bounds, absEB := fieldStatsLevels(t, ts, "W")
	if levels != 3 {
		t.Fatalf("levels = %d, want 3", levels)
	}
	if len(bounds) != 3 {
		t.Fatalf("level_bounds = %v, want 3 entries", bounds)
	}
	// WithProgressive(3) drops 4 bits: bounds eb·17, eb·5, eb.
	if want := absEB * 17; math.Abs(bounds[0]-want) > want*1e-12 {
		t.Fatalf("bounds[0] = %g, want %g", bounds[0], want)
	}
	if bounds[2] != absEB {
		t.Fatalf("bounds[2] = %g, want abs_eb %g", bounds[2], absEB)
	}
	if !(bounds[0] > bounds[1] && bounds[1] > bounds[2]) {
		t.Fatalf("bounds %v not strictly decreasing", bounds)
	}
}

// TestProgressiveLevelResolution pins the ?eb= negotiation: a relaxed
// bound resolves to the cheapest sufficient preview, a bound tighter than
// every preview (or than the payload's own bound) resolves to full, and
// every served level's measured error stays within its advertised bound.
func TestProgressiveLevelResolution(t *testing.T) {
	_, ts := newProgressiveServer(t, serve.Config{})
	target, _ := testDataset(t)
	_, bounds, absEB := fieldStatsLevels(t, ts, "W")

	maxAbs := 0.0
	for _, v := range target.Data() {
		if a := math.Abs(float64(v)); a > maxAbs {
			maxAbs = a
		}
	}
	slack := maxAbs * 3e-7 // float32 dequantization rounding

	cases := []struct {
		eb        string
		wantLevel string
	}{
		{fmt.Sprintf("%g", bounds[0]*1.01), "0"},
		{fmt.Sprintf("%g", bounds[1]*1.01), "1"},
		{fmt.Sprintf("%g", bounds[1]), "1"}, // exactly a level's guarantee: that level, not deeper
		{fmt.Sprintf("%g", bounds[2]*1.01), "full"},
		{fmt.Sprintf("%g", absEB/100), "full"}, // tighter than the payload: best effort
	}
	for _, tc := range cases {
		resp, body := get(t, ts, "/v1/archives/prog/fields/W?eb="+tc.eb)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("eb=%s: status %d: %s", tc.eb, resp.StatusCode, body)
		}
		if lv := resp.Header.Get("X-CFC-Level"); lv != tc.wantLevel {
			t.Fatalf("eb=%s: X-CFC-Level = %q, want %q", tc.eb, lv, tc.wantLevel)
		}
		got := floatsOf(t, body)
		meas := maxAbsErr(got, target.Data())
		ebReq, _ := strconv.ParseFloat(tc.eb, 64)
		if tc.wantLevel != "full" && meas > ebReq+slack {
			t.Fatalf("eb=%s level %s: measured err %g exceeds requested bound", tc.eb, tc.wantLevel, meas)
		}
		if ach := resp.Header.Get("X-CFC-Achieved-EB"); ach != "" {
			a, err := strconv.ParseFloat(ach, 64)
			if err != nil {
				t.Fatalf("eb=%s: bad X-CFC-Achieved-EB %q", tc.eb, ach)
			}
			if meas > a+slack {
				t.Fatalf("eb=%s: measured %g exceeds advertised achieved %g", tc.eb, meas, a)
			}
		}
	}

	// Explicit levels: errors monotone non-increasing, deepest == plain GET.
	_, fullBody := get(t, ts, "/v1/archives/prog/fields/W")
	prev := math.Inf(1)
	for l := 0; l < 3; l++ {
		resp, body := get(t, ts, "/v1/archives/prog/fields/W?level="+strconv.Itoa(l))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("level=%d: status %d", l, resp.StatusCode)
		}
		meas := maxAbsErr(floatsOf(t, body), target.Data())
		if meas > prev+slack {
			t.Fatalf("level %d error %g worse than level %d's %g", l, meas, l-1, prev)
		}
		if meas > bounds[l]+slack {
			t.Fatalf("level %d error %g exceeds advertised bound %g", l, meas, bounds[l])
		}
		prev = meas
		if l == 2 && !bytes.Equal(body, fullBody) {
			t.Fatal("deepest explicit level differs from the plain full response")
		}
	}
}

func TestProgressiveBadParams(t *testing.T) {
	_, ts := newProgressiveServer(t, serve.Config{})
	for _, q := range []string{
		"?eb=0", "?eb=-1", "?eb=abc", "?level=-1", "?level=3", "?level=x",
		"?eb=1&level=0",
	} {
		resp, body := get(t, ts, "/v1/archives/prog/fields/W"+q)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("GET %s = %d, want 400: %s", q, resp.StatusCode, body)
		}
	}
	for _, q := range []string{"?from=", "?from=2", "?from=0&to=0", "?from=1&to=1", "?from=0&to=9"} {
		resp, body := get(t, ts, "/v1/archives/prog/fields/W/delta"+q)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("GET delta%s = %d, want 400: %s", q, resp.StatusCode, body)
		}
	}
}

// TestNonProgressiveNegotiation pins the legacy-payload behavior: ?eb=
// always serves the only representation there is, level 0 is accepted as
// full, deeper levels and deltas are rejected.
func TestNonProgressiveNegotiation(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})
	resp, _ := get(t, ts, "/v1/archives/ds/fields/W?eb=1e9")
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-CFC-Level") != "full" {
		t.Fatalf("?eb= on non-progressive: status %d level %q", resp.StatusCode, resp.Header.Get("X-CFC-Level"))
	}
	if resp, _ := get(t, ts, "/v1/archives/ds/fields/W?level=0"); resp.StatusCode != http.StatusOK {
		t.Fatalf("?level=0 on non-progressive: status %d", resp.StatusCode)
	}
	if resp, _ := get(t, ts, "/v1/archives/ds/fields/W?level=1"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("?level=1 on non-progressive: status %d, want 400", resp.StatusCode)
	}
	if resp, _ := get(t, ts, "/v1/archives/ds/fields/W/delta?from=0"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("delta on non-progressive: status %d, want 400", resp.StatusCode)
	}
}

// TestProgressiveDeltaUpgrade pins the refinement contract: a preview
// XORed with the streamed delta reproduces the deeper response
// byte-identically, for fields and for chunks, full and partial upgrades.
func TestProgressiveDeltaUpgrade(t *testing.T) {
	_, ts := newProgressiveServer(t, serve.Config{})

	upgrade := func(preview, delta []byte) []byte {
		if len(preview) != len(delta) {
			t.Fatalf("preview %d bytes, delta %d bytes", len(preview), len(delta))
		}
		out := make([]byte, len(preview))
		for i := range out {
			out[i] = preview[i] ^ delta[i]
		}
		return out
	}

	// Fetch the preview representations before anything decodes the full
	// field: once the full entry is resident, preview requests are
	// answered with it (the upgrade-for-free path) and would no longer
	// exercise level decoding.
	_, preview := get(t, ts, "/v1/archives/prog/fields/W?level=0")
	respMid, mid := get(t, ts, "/v1/archives/prog/fields/W?level=1")
	if lv := respMid.Header.Get("X-CFC-Level"); lv != "1" {
		t.Fatalf("level=1 served as %q", lv)
	}
	_, d01 := get(t, ts, "/v1/archives/prog/fields/W/delta?from=0&to=1")
	if !bytes.Equal(upgrade(preview, d01), mid) {
		t.Fatal("preview XOR delta(0->1) != level-1 response")
	}

	// Field: level 0 -> full (default to).
	resp, delta := get(t, ts, "/v1/archives/prog/fields/W/delta?from=0")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("field delta: status %d: %s", resp.StatusCode, delta)
	}
	if from, to := resp.Header.Get("X-CFC-Delta-From"), resp.Header.Get("X-CFC-Delta-To"); from != "0" || to != "2" {
		t.Fatalf("delta headers from=%q to=%q, want 0/2", from, to)
	}
	_, full := get(t, ts, "/v1/archives/prog/fields/W")
	if !bytes.Equal(upgrade(preview, delta), full) {
		t.Fatal("preview XOR delta != full field response")
	}

	// Chunk: same contract per chunk.
	_, cPrev := get(t, ts, "/v1/archives/prog/fields/W/chunks/1?level=0")
	resp, cDelta := get(t, ts, "/v1/archives/prog/fields/W/chunks/1/delta?from=0")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("chunk delta: status %d: %s", resp.StatusCode, cDelta)
	}
	_, cFull := get(t, ts, "/v1/archives/prog/fields/W/chunks/1")
	if !bytes.Equal(upgrade(cPrev, cDelta), cFull) {
		t.Fatal("chunk preview XOR delta != full chunk response")
	}
}

// TestProgressiveCacheKeySeparation pins that previews and the full
// representation occupy distinct cache entries (miss counters), that
// repeats are served without re-decoding, and that a resident
// full-fidelity entry satisfies later preview requests as level "full".
func TestProgressiveCacheKeySeparation(t *testing.T) {
	s, ts := newProgressiveServer(t, serve.Config{})

	// U has no anchors, so its miss counts are exact.
	_, _ = get(t, ts, "/v1/archives/prog/fields/U?level=0")
	if m := s.FieldCacheStats().Misses; m != 1 {
		t.Fatalf("after preview: field misses = %d, want 1", m)
	}
	_, _ = get(t, ts, "/v1/archives/prog/fields/U?level=0")
	if m := s.FieldCacheStats().Misses; m != 1 {
		t.Fatalf("repeat preview re-decoded: misses = %d", m)
	}
	resp, _ := get(t, ts, "/v1/archives/prog/fields/U?level=1")
	if resp.Header.Get("X-CFC-Level") != "1" {
		t.Fatalf("level=1 served as %q", resp.Header.Get("X-CFC-Level"))
	}
	if m := s.FieldCacheStats().Misses; m != 2 {
		t.Fatalf("after second preview: misses = %d, want 2", m)
	}
	_, _ = get(t, ts, "/v1/archives/prog/fields/U")
	if m := s.FieldCacheStats().Misses; m != 3 {
		t.Fatalf("after full: misses = %d, want 3", m)
	}
	// Full is resident now: a preview request is upgraded for free.
	resp, _ = get(t, ts, "/v1/archives/prog/fields/U?level=0")
	if lv := resp.Header.Get("X-CFC-Level"); lv != "full" {
		t.Fatalf("preview after full hit served level %q, want full", lv)
	}
	if m := s.FieldCacheStats().Misses; m != 3 {
		t.Fatalf("full-hit upgrade decoded something: misses = %d", m)
	}

	// The level metric saw three preview requests and two full-shaped ones.
	if got := s.LevelRequests("0"); got != 3 {
		t.Fatalf("LevelRequests(0) = %d, want 3", got)
	}
	if got := s.LevelRequests("1"); got != 1 {
		t.Fatalf("LevelRequests(1) = %d, want 1", got)
	}
	if got := s.LevelRequests("full"); got != 1 {
		t.Fatalf("LevelRequests(full) = %d, want 1", got)
	}
}

// TestProgressiveETagsAndRangePerLevel pins the validator and Range
// behavior of preview representations: each level (and each delta) gets
// its own strong ETag, If-None-Match revalidates per level, and byte
// ranges slice the preview body.
func TestProgressiveETagsAndRangePerLevel(t *testing.T) {
	// Retention is disabled so a cached full-fidelity entry never
	// upgrades the preview requests: every fetch here must exercise the
	// preview representation itself.
	_, ts := newProgressiveServer(t, serve.Config{FieldCacheBytes: -1})
	client := &http.Client{Transport: &http.Transport{DisableCompression: true}}

	fetch := func(path string, hdr map[string]string) (*http.Response, []byte) {
		req, err := http.NewRequest("GET", ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range hdr {
			req.Header.Set(k, v)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp, buf.Bytes()
	}

	r0, body0 := fetch("/v1/archives/prog/fields/W?level=0", nil)
	r1, _ := fetch("/v1/archives/prog/fields/W?level=1", nil)
	rf, _ := fetch("/v1/archives/prog/fields/W", nil)
	rd, _ := fetch("/v1/archives/prog/fields/W/delta?from=0", nil)
	tags := map[string]string{
		"level0": r0.Header.Get("ETag"), "level1": r1.Header.Get("ETag"),
		"full": rf.Header.Get("ETag"), "delta": rd.Header.Get("ETag"),
	}
	seen := map[string]string{}
	for name, tag := range tags {
		if tag == "" {
			t.Fatalf("%s: missing ETag", name)
		}
		if prev, dup := seen[tag]; dup {
			t.Fatalf("ETag %q shared by %s and %s", tag, prev, name)
		}
		seen[tag] = name
	}

	// Conditional revalidation against the preview's own validator.
	r304, _ := fetch("/v1/archives/prog/fields/W?level=0", map[string]string{"If-None-Match": tags["level0"]})
	if r304.StatusCode != http.StatusNotModified {
		t.Fatalf("If-None-Match preview: status %d, want 304", r304.StatusCode)
	}
	// The full validator does not revalidate the preview representation.
	r200, _ := fetch("/v1/archives/prog/fields/W?level=0", map[string]string{"If-None-Match": tags["full"]})
	if r200.StatusCode != http.StatusOK {
		t.Fatalf("If-None-Match full-vs-preview: status %d, want 200", r200.StatusCode)
	}

	// Range slices the preview bytes.
	rr, part := fetch("/v1/archives/prog/fields/W?level=0", map[string]string{"Range": "bytes=0-99"})
	if rr.StatusCode != http.StatusPartialContent {
		t.Fatalf("Range on preview: status %d, want 206", rr.StatusCode)
	}
	if !bytes.Equal(part, body0[:100]) {
		t.Fatal("Range bytes disagree with the preview body prefix")
	}

	// Gzip negotiation per level: distinct -gzip validator, decodable body.
	rgz, gzBody := fetch("/v1/archives/prog/fields/W?level=0", map[string]string{"Accept-Encoding": "gzip"})
	if enc := rgz.Header.Get("Content-Encoding"); enc != "gzip" {
		t.Fatalf("preview gzip: Content-Encoding = %q", enc)
	}
	if tag := rgz.Header.Get("ETag"); tag == tags["level0"] || !bytes.Contains([]byte(tag), []byte("-gzip")) {
		t.Fatalf("preview gzip ETag %q does not vary from identity %q", tag, tags["level0"])
	}
	if len(gzBody) >= len(body0) {
		t.Fatalf("gzip preview body %d bytes >= identity %d", len(gzBody), len(body0))
	}
}

// TestProgressiveConcurrentMixedLevels hammers one field with mixed-level
// requests on a cold server: every response must be internally consistent
// (its body matches the level its header declares), and the decode count
// stays bounded by the number of representations (coalescing holds).
func TestProgressiveConcurrentMixedLevels(t *testing.T) {
	s, ts := newProgressiveServer(t, serve.Config{})

	paths := []string{
		"/v1/archives/prog/fields/U?level=0",
		"/v1/archives/prog/fields/U?level=1",
		"/v1/archives/prog/fields/U",
	}
	type result struct {
		level string
		body  []byte
	}
	const perPath = 8
	results := make([]result, perPath*len(paths))
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := get(t, ts, paths[i%len(paths)])
			if resp.StatusCode != http.StatusOK {
				t.Errorf("GET %s: status %d", paths[i%len(paths)], resp.StatusCode)
				return
			}
			results[i] = result{level: resp.Header.Get("X-CFC-Level"), body: body}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	byLevel := map[string][]byte{}
	for _, res := range results {
		if prev, ok := byLevel[res.level]; ok {
			if !bytes.Equal(prev, res.body) {
				t.Fatalf("level %q served two different bodies", res.level)
			}
		} else {
			byLevel[res.level] = res.body
		}
	}
	// A racing full decode may upgrade preview requests, so at most three
	// representations — and therefore at most three decodes — exist.
	if m := s.FieldCacheStats().Misses; m > 3 {
		t.Fatalf("field misses = %d, want <= 3 (one per representation)", m)
	}
	_, full := get(t, ts, "/v1/archives/prog/fields/U")
	if b, ok := byLevel["full"]; ok && !bytes.Equal(b, full) {
		t.Fatal("full bodies disagree across the storm")
	}
}

// TestProgressiveCorruptLayerServesLowerLevels flips a byte in the
// deepest refinement layer of a bare layered blob: full-fidelity requests
// answer 502 (bad gateway to the archive's true bytes), while every lower
// level still decodes within its advertised bound.
func TestProgressiveCorruptLayerServesLowerLevels(t *testing.T) {
	_, anchors := testDataset(t)
	u := anchors[0]
	res, err := crossfield.CompressBaseline(u, crossfield.Abs(1e-3), crossfield.WithProgressive(3))
	if err != nil {
		t.Fatal(err)
	}
	blob := append([]byte(nil), res.Blob...)
	// Layer payloads are concatenated last, deepest plane at the tail:
	// flipping the final byte damages only the deepest layer's CRC.
	blob[len(blob)-1] ^= 0xFF

	s := serve.New(serve.Config{})
	if err := s.Mount("bad", blob); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	resp, body := get(t, ts, "/v1/archives/bad/fields/bad")
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("full decode of corrupt layer: status %d, want 502: %s", resp.StatusCode, body)
	}
	for l := 0; l < 2; l++ {
		resp, body := get(t, ts, "/v1/archives/bad/fields/bad?level="+strconv.Itoa(l))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("level %d below corrupt layer: status %d: %s", l, resp.StatusCode, body)
		}
		bound, err := strconv.ParseFloat(resp.Header.Get("X-CFC-Level-Bound"), 64)
		if err != nil {
			t.Fatalf("level %d: bad X-CFC-Level-Bound %q", l, resp.Header.Get("X-CFC-Level-Bound"))
		}
		if meas := maxAbsErr(floatsOf(t, body), u.Data()); meas > bound*(1+1e-9) {
			t.Fatalf("level %d: measured err %g exceeds bound %g", l, meas, bound)
		}
	}
}
