package cluster_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	crossfield "repro"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/serve"
)

const (
	tnz, tny, tnx = 8, 18, 20
	slabVoxels    = tny * tnx
)

// buildArchiveBlob trains the same tiny cross-field dataset the serve
// tests use and packs it into a chunked CFC3 archive (U, V, PRES anchors;
// W hybrid; 2-slab chunks so every field has 4).
func buildArchiveBlob(t *testing.T) []byte {
	t.Helper()
	n := tnz * tny * tnx
	u := make([]float32, n)
	v := make([]float32, n)
	p := make([]float32, n)
	w := make([]float32, n)
	idx := 0
	for k := 0; k < tnz; k++ {
		for i := 0; i < tny; i++ {
			for j := 0; j < tnx; j++ {
				phase := 0.9*float64(k) + 1.3*float64(i) + 1.7*float64(j)
				uu := 10*math.Sin(phase) + 2*math.Sin(float64(i)/9)
				vv := 8*math.Cos(phase) + 1.5*math.Cos(float64(j)/7)
				pp := 500 + 20*math.Sin(float64(i)/9)*math.Cos(float64(j)/11)
				u[idx] = float32(uu)
				v[idx] = float32(vv)
				p[idx] = float32(pp)
				w[idx] = float32(0.5*uu - 0.4*vv + 0.02*(pp-500))
				idx++
			}
		}
	}
	target := crossfield.MustNewField("W", w, tnz, tny, tnx)
	anchors := []*crossfield.Field{
		crossfield.MustNewField("U", u, tnz, tny, tnx),
		crossfield.MustNewField("V", v, tnz, tny, tnx),
		crossfield.MustNewField("PRES", p, tnz, tny, tnx),
	}
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
		crossfield.WithChunks(2*slabVoxels))
	if err != nil {
		t.Fatal(err)
	}
	return res.Blob
}

var (
	blobOnce sync.Once
	blob     []byte
)

func sharedBlob(t *testing.T) []byte {
	t.Helper()
	blobOnce.Do(func() { blob = buildArchiveBlob(t) })
	if blob == nil {
		t.Fatal("archive blob construction failed earlier")
	}
	return blob
}

// testCluster is n cfserve nodes behind one router, all mounting the same
// archive as "ds".
type testCluster struct {
	servers  []*serve.Server
	backends []*httptest.Server
	urls     []string
	router   *cluster.Router
	front    *httptest.Server
	ring     *cluster.Ring // mirrors the router's resource-key placement
}

func (tc *testCluster) byURL(u string) (*serve.Server, *httptest.Server) {
	for i, b := range tc.backends {
		if b.URL == u {
			return tc.servers[i], b
		}
	}
	return nil, nil
}

func startCluster(t *testing.T, n int, cfg cluster.Config) *testCluster {
	t.Helper()
	tc := &testCluster{ring: cluster.NewRing(cfg.VirtualNodes)}
	for i := 0; i < n; i++ {
		s := serve.New(serve.Config{})
		if err := s.Mount("ds", sharedBlob(t)); err != nil {
			t.Fatal(err)
		}
		b := httptest.NewServer(s.Handler())
		t.Cleanup(b.Close)
		tc.servers = append(tc.servers, s)
		tc.backends = append(tc.backends, b)
		tc.urls = append(tc.urls, b.URL)
		tc.ring.Add(b.URL)
	}
	cfg.Peers = append([]string(nil), tc.urls...)
	if cfg.HealthInterval == 0 {
		cfg.HealthInterval = time.Hour // tests drive CheckNow explicitly
	}
	rt, err := cluster.NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	tc.router = rt
	tc.front = httptest.NewServer(rt.Handler())
	t.Cleanup(tc.front.Close)
	return tc
}

// rawGet fetches base+path with identity encoding (raw little-endian
// bodies on both the direct and routed paths, so bytes compare 1:1).
func rawGet(t *testing.T, base, path string, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, base+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept-Encoding", "identity")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// chunkKeyOwnedBy finds a chunk resource path whose primary owner is the
// given peer, plus that key's replica.
func (tc *testCluster) chunkKeyOwnedBy(t *testing.T, peer string) (path, replica string) {
	t.Helper()
	for _, f := range []string{"U", "V", "PRES", "W"} {
		for ci := 0; ci < 4; ci++ {
			key := fmt.Sprintf("ds/%s#%d", f, ci)
			owners := tc.ring.Owners(key, 2)
			if len(owners) == 2 && owners[0] == peer {
				return fmt.Sprintf("/v1/archives/ds/fields/%s/chunks/%d", f, ci), owners[1]
			}
		}
	}
	t.Fatalf("no chunk key has primary %s (distribution too skewed for 16 keys)", peer)
	return "", ""
}

// TestClusterByteIdentity: every field and chunk response through the
// 3-node router is byte-identical to a single node serving alone, and the
// router stamps which peer served it. With one node killed, every path
// still comes back through the router with the solo node's body and ETag.
func TestClusterByteIdentity(t *testing.T) {
	tc := startCluster(t, 3, cluster.Config{})
	solo := serve.New(serve.Config{})
	if err := solo.Mount("ds", sharedBlob(t)); err != nil {
		t.Fatal(err)
	}
	ref := httptest.NewServer(solo.Handler())
	defer ref.Close()

	paths := []string{"/v1/archives"}
	for _, f := range []string{"U", "V", "PRES", "W"} {
		paths = append(paths, "/v1/archives/ds/fields/"+f)
		for ci := 0; ci < 4; ci++ {
			paths = append(paths, fmt.Sprintf("/v1/archives/ds/fields/%s/chunks/%d", f, ci))
		}
	}
	for _, path := range paths {
		want, wantBody := rawGet(t, ref.URL, path, nil)
		got, gotBody := rawGet(t, tc.front.URL, path, nil)
		if want.StatusCode != http.StatusOK || got.StatusCode != want.StatusCode {
			t.Fatalf("GET %s: solo=%d routed=%d", path, want.StatusCode, got.StatusCode)
		}
		if !bytes.Equal(wantBody, gotBody) {
			t.Fatalf("GET %s: routed body differs from single-node body (%d vs %d bytes)",
				path, len(gotBody), len(wantBody))
		}
		if peer := got.Header.Get("X-CFC-Peer"); peer == "" {
			t.Fatalf("GET %s: routed response missing X-CFC-Peer", path)
		}
		if want.Header.Get("ETag") != got.Header.Get("ETag") {
			t.Fatalf("GET %s: ETag differs: %q vs %q", path,
				got.Header.Get("ETag"), want.Header.Get("ETag"))
		}
	}

	tc.backends[0].Close()
	for _, path := range paths {
		want, wantBody := rawGet(t, ref.URL, path, nil)
		got, gotBody := rawGet(t, tc.front.URL, path, nil)
		if got.StatusCode != http.StatusOK {
			t.Fatalf("GET %s after node kill: routed=%d: %s", path, got.StatusCode, gotBody)
		}
		if !bytes.Equal(wantBody, gotBody) {
			t.Fatalf("GET %s after node kill: routed body differs from single-node body (%d vs %d bytes)",
				path, len(gotBody), len(wantBody))
		}
		if want.Header.Get("ETag") != got.Header.Get("ETag") {
			t.Fatalf("GET %s after node kill: ETag differs: %q vs %q", path,
				got.Header.Get("ETag"), want.Header.Get("ETag"))
		}
	}
}

// TestRouterFailoverAndEject: killing a chunk's primary owner mid-cluster
// leaves the chunk servable (retried on the replica, bytes unchanged),
// and the data-path failures plus a probe sweep eject the dead peer.
func TestRouterFailoverAndEject(t *testing.T) {
	tc := startCluster(t, 3, cluster.Config{})
	victim := tc.ring.Owner("ds/U#0")
	path, replica := tc.chunkKeyOwnedBy(t, victim)

	wantResp, wantBody := rawGet(t, replica, path, nil)
	if wantResp.StatusCode != http.StatusOK {
		t.Fatalf("replica direct GET %s = %d", path, wantResp.StatusCode)
	}
	_, victimBackend := tc.byURL(victim)
	victimBackend.Close()

	resp, body := rawGet(t, tc.front.URL, path, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("routed GET %s after primary death = %d: %s", path, resp.StatusCode, body)
	}
	if !bytes.Equal(body, wantBody) {
		t.Fatalf("failover body differs from replica's direct response")
	}
	if peer := resp.Header.Get("X-CFC-Peer"); peer != replica {
		t.Fatalf("X-CFC-Peer = %q, want replica %q", peer, replica)
	}

	// Two probe sweeps push the dead peer past EjectAfter.
	tc.router.CheckNow()
	tc.router.CheckNow()
	for _, p := range tc.router.HealthyPeers() {
		if p == victim {
			t.Fatalf("dead peer %s still in ring after two failed sweeps", victim)
		}
	}
	var buf bytes.Buffer
	tc.router.Metrics(&buf)
	if !strings.Contains(buf.String(), `cfrouter_ring_rebalances_total{event="eject"}`) {
		t.Fatalf("eject not counted in exposition:\n%s", buf.String())
	}
	if err := obs.LintExposition(buf.Bytes()); err != nil {
		t.Fatalf("router exposition lint: %v", err)
	}
}

// TestHealthEjectReadmit drives a flapping backend through the hysteresis
// state machine: consecutive failures eject, consecutive successes
// readmit, and the gauge tracks both transitions.
func TestHealthEjectReadmit(t *testing.T) {
	var sick atomic.Bool
	b := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" && !sick.Load() {
			fmt.Fprintln(w, "ok")
			return
		}
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer b.Close()
	rt, err := cluster.NewRouter(cluster.Config{
		Peers:          []string{b.URL},
		HealthInterval: time.Hour,
		EjectAfter:     2,
		ReadmitAfter:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	if got := rt.HealthyPeers(); len(got) != 1 {
		t.Fatalf("optimistic admission missing: %v", got)
	}
	sick.Store(true)
	rt.CheckNow() // fail 1: hysteresis holds
	if got := rt.HealthyPeers(); len(got) != 1 {
		t.Fatalf("ejected after a single failure: %v", got)
	}
	rt.CheckNow() // fail 2: ejected
	if got := rt.HealthyPeers(); len(got) != 0 {
		t.Fatalf("not ejected after %d failures: %v", 2, got)
	}

	// With the ring empty the router refuses data traffic and reports
	// unready, while its own liveness stays green.
	front := httptest.NewServer(rt.Handler())
	defer front.Close()
	if resp, _ := rawGet(t, front.URL, "/readyz", nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("empty-ring /readyz = %d, want 503", resp.StatusCode)
	}
	if resp, _ := rawGet(t, front.URL, "/healthz", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz = %d, want 200", resp.StatusCode)
	}
	if resp, body := rawGet(t, front.URL, "/v1/archives", nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("empty-ring proxy = %d: %s", resp.StatusCode, body)
	}

	sick.Store(false)
	rt.CheckNow() // ok 1: still out
	if got := rt.HealthyPeers(); len(got) != 0 {
		t.Fatalf("readmitted after a single success: %v", got)
	}
	rt.CheckNow() // ok 2: back in
	if got := rt.HealthyPeers(); len(got) != 1 {
		t.Fatalf("not readmitted after recovery: %v", got)
	}
	var buf bytes.Buffer
	rt.Metrics(&buf)
	exp := buf.String()
	for _, series := range []string{
		`cfrouter_ring_rebalances_total{event="eject"} 1`,
		`cfrouter_ring_rebalances_total{event="readmit"} 1`,
	} {
		if !strings.Contains(exp, series) {
			t.Errorf("exposition missing %q:\n%s", series, exp)
		}
	}
}

// TestTraceIDPropagation: a client-chosen trace id survives the router
// hop — it comes back on the routed response and shows up in both the
// router's and the serving node's /debug/trace rings. A ring is published
// after the handler returns, so a body that outgrows the write buffer can
// reach the client first: each ring is polled until the id appears.
func TestTraceIDPropagation(t *testing.T) {
	tc := startCluster(t, 3, cluster.Config{})
	const id = "00c0ffee00c0ffee"
	path := "/v1/archives/ds/fields/U/chunks/0"
	resp, _ := rawGet(t, tc.front.URL, path, map[string]string{"X-CFC-Trace": id})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", path, resp.StatusCode)
	}
	if got := resp.Header.Get("X-CFC-Trace"); got != id {
		t.Fatalf("routed X-CFC-Trace = %q, want %q", got, id)
	}
	peer := resp.Header.Get("X-CFC-Peer")
	if peer == "" {
		t.Fatal("missing X-CFC-Peer")
	}
	for name, base := range map[string]string{"router": tc.front.URL, "node": peer} {
		deadline := time.Now().Add(2 * time.Second)
		for {
			_, trace := rawGet(t, base, "/debug/trace", nil)
			if strings.Contains(string(trace), id) {
				break
			}
			if time.Now().After(deadline) {
				t.Errorf("%s /debug/trace does not contain adopted id %s:\n%s", name, id, trace)
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// TestFailoverSingleflightNoDoubleDecode: when the owning peer dies
// mid-request, the router fails all concurrent requests for one chunk
// over to the replica — which must decode exactly once, coalescing the
// rest through the singleflight cache.
func TestFailoverSingleflightNoDoubleDecode(t *testing.T) {
	tc := startCluster(t, 3, cluster.Config{})
	victim := tc.ring.Owner("ds/V#2")
	path, replica := tc.chunkKeyOwnedBy(t, victim)
	_, victimBackend := tc.byURL(victim)
	victimBackend.Close()
	replicaServer, _ := tc.byURL(replica)
	if before := replicaServer.ChunkCacheStats(); before.Misses != 0 {
		t.Fatalf("replica chunk cache not cold: %+v", before)
	}

	const concurrency = 8
	bodies := make([][]byte, concurrency)
	var wg sync.WaitGroup
	for i := 0; i < concurrency; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req, err := http.NewRequest(http.MethodGet, tc.front.URL+path, nil)
			if err != nil {
				t.Error(err)
				return
			}
			req.Header.Set("Accept-Encoding", "identity")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Error(err)
				return
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d err %v", i, resp.StatusCode, err)
				return
			}
			bodies[i] = body
		}(i)
	}
	wg.Wait()
	for i := 1; i < concurrency; i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("request %d body differs under failover", i)
		}
	}
	st := replicaServer.ChunkCacheStats()
	if st.Misses != 1 {
		t.Fatalf("replica decoded %d times for %d concurrent failovers, want 1 (%+v)",
			st.Misses, concurrency, st)
	}
	if st.Hits+st.Coalesced != concurrency-1 {
		t.Fatalf("hits(%d)+coalesced(%d) != %d (%+v)", st.Hits, st.Coalesced, concurrency-1, st)
	}
}

// TestAnchorClientPeerFetch: with peer awareness installed, a node whose
// ring says another peer owns a chunk's content key fetches the decoded
// bytes from that peer instead of re-decoding, and the bytes match.
func TestAnchorClientPeerFetch(t *testing.T) {
	// Two plain nodes first; anchor clients need the URLs.
	var servers [2]*serve.Server
	var backends [2]*httptest.Server
	for i := range servers {
		servers[i] = serve.New(serve.Config{})
		if err := servers[i].Mount("ds", sharedBlob(t)); err != nil {
			t.Fatal(err)
		}
		backends[i] = httptest.NewServer(servers[i].Handler())
		defer backends[i].Close()
	}
	urls := []string{backends[0].URL, backends[1].URL}
	clients := make([]*cluster.AnchorClient, 2)
	for i := range servers {
		ac, err := cluster.NewAnchorClient(cluster.AnchorClientConfig{
			Self: urls[i], Peers: urls,
		})
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = ac
		servers[i].SetRemote(ac)
	}

	// Find a chunk whose Merkle content key (its ETag) is owned by node 1,
	// so node 0 must fetch it remotely.
	var path, wantETag string
	for _, f := range []string{"U", "V", "PRES", "W"} {
		for ci := 0; ci < 4 && path == ""; ci++ {
			p := fmt.Sprintf("/v1/archives/ds/fields/%s/chunks/%d", f, ci)
			resp, _ := rawGet(t, urls[1], p, nil)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("GET %s = %d", p, resp.StatusCode)
			}
			key := strings.Trim(resp.Header.Get("ETag"), `"`)
			if clients[0].Owner(key) == urls[1] {
				path, wantETag = p, resp.Header.Get("ETag")
			}
		}
		if path != "" {
			break
		}
	}
	if path == "" {
		t.Fatal("no chunk's content key is owned by node 1; 16 keys all landed on node 0")
	}

	_, wantBody := rawGet(t, urls[1], path, nil)
	// The discovery GETs above were external, so node 1 may legitimately
	// have peer-fetched anchor chunks of its own (e.g. for W). Snapshot its
	// counters: serving node 0's internal fetch must not move them.
	baseHits, baseMisses := servers[1].RemoteFetches()
	resp, gotBody := rawGet(t, urls[0], path, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s via node 0 = %d", path, resp.StatusCode)
	}
	if !bytes.Equal(gotBody, wantBody) {
		t.Fatalf("peer-fetched body differs from owner's decode")
	}
	if got := resp.Header.Get("ETag"); got != wantETag {
		t.Fatalf("peer-fetched ETag %q != owner's %q", got, wantETag)
	}
	hits, _ := servers[0].RemoteFetches()
	if hits != 1 {
		t.Fatalf("node 0 remote fetch hits = %d, want 1", hits)
	}
	// The owner served locally (X-CFC-Internal pinned it): its own remote
	// hook must not have fired back at node 0 while handling the fetch.
	if h, m := servers[1].RemoteFetches(); h != baseHits || m != baseMisses {
		t.Fatalf("owner remote fetches moved %d/%d -> %d/%d serving an internal request; must stay local",
			baseHits, baseMisses, h, m)
	}
	// A second request on node 0 is a plain cache hit — no new fetch.
	rawGet(t, urls[0], path, nil)
	if h, _ := servers[0].RemoteFetches(); h != 1 {
		t.Fatalf("cached chunk refetched remotely: hits = %d", h)
	}
}

// TestAnchorClientVerification: a peer serving the wrong content (ETag
// mismatch) is rejected and the local decode wins — wrong peers cost
// latency, never correctness.
func TestAnchorClientVerification(t *testing.T) {
	// A fake "peer" that answers every chunk request with garbage.
	evil := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("ETag", `"not-the-content-key"`)
		w.Write([]byte("garbage"))
	}))
	defer evil.Close()

	s := serve.New(serve.Config{})
	if err := s.Mount("ds", sharedBlob(t)); err != nil {
		t.Fatal(err)
	}
	b := httptest.NewServer(s.Handler())
	defer b.Close()
	// Ring of two where every key not owned by self goes to the evil peer.
	ac, err := cluster.NewAnchorClient(cluster.AnchorClientConfig{
		Self: b.URL, Peers: []string{b.URL, evil.URL},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.SetRemote(ac)

	solo := serve.New(serve.Config{})
	if err := solo.Mount("ds", sharedBlob(t)); err != nil {
		t.Fatal(err)
	}
	ref := httptest.NewServer(solo.Handler())
	defer ref.Close()

	for _, f := range []string{"U", "W"} {
		for ci := 0; ci < 4; ci++ {
			p := fmt.Sprintf("/v1/archives/ds/fields/%s/chunks/%d", f, ci)
			_, want := rawGet(t, ref.URL, p, nil)
			resp, got := rawGet(t, b.URL, p, nil)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("GET %s = %d", p, resp.StatusCode)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("GET %s: bytes corrupted by unverified peer", p)
			}
		}
	}
	if hits, _ := s.RemoteFetches(); hits != 0 {
		t.Fatalf("unverifiable peer bytes were accepted: hits = %d", hits)
	}
}

// TestAnchorClientRepairChunk: RepairChunk must walk the key's ring
// owners and fetch from another replica even when the key is self-owned —
// the repair caller's local bytes are the broken ones, so self-ownership
// is exactly the case FetchChunk declines and RepairChunk must not.
func TestAnchorClientRepairChunk(t *testing.T) {
	var servers [2]*serve.Server
	var backends [2]*httptest.Server
	for i := range servers {
		servers[i] = serve.New(serve.Config{})
		if err := servers[i].Mount("ds", sharedBlob(t)); err != nil {
			t.Fatal(err)
		}
		backends[i] = httptest.NewServer(servers[i].Handler())
		defer backends[i].Close()
	}
	urls := []string{backends[0].URL, backends[1].URL}
	ac, err := cluster.NewAnchorClient(cluster.AnchorClientConfig{
		Self: urls[0], Peers: urls,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Find a chunk whose content key node 0 owns itself: FetchChunk
	// declines it, RepairChunk must still source it from node 1.
	var path, field, key string
	var ci int
	var want []byte
	for _, f := range []string{"U", "V", "PRES"} {
		for c := 0; c < 4 && path == ""; c++ {
			p := fmt.Sprintf("/v1/archives/ds/fields/%s/chunks/%d", f, c)
			resp, body := rawGet(t, urls[1], p, nil)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("GET %s = %d", p, resp.StatusCode)
			}
			k := strings.Trim(resp.Header.Get("ETag"), `"`)
			if ac.Owner(k) == urls[0] {
				path, field, key, ci, want = p, f, k, c, body
			}
		}
		if path != "" {
			break
		}
	}
	if path == "" {
		t.Fatal("no chunk key is self-owned by node 0; 12 keys all landed on node 1")
	}

	if _, ok := ac.FetchChunk(context.Background(), key, "ds", field, ci, len(want)); ok {
		t.Fatal("FetchChunk fetched a self-owned key")
	}
	got, ok := ac.RepairChunk(context.Background(), key, "ds", field, ci, len(want))
	if !ok {
		t.Fatal("RepairChunk found no replica for a key node 1 serves")
	}
	if !bytes.Equal(got, want) {
		t.Fatal("repaired bytes differ from the replica's decode")
	}
}
