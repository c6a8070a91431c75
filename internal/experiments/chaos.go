package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	crossfield "repro"
	"repro/internal/cluster"
	"repro/internal/faultinject"
	"repro/internal/serve"
)

// ChaosBenchReport is the machine-readable output of ChaosBench, written
// as BENCH_chaos.json so the serving stack's behavior under faults is
// tracked across PRs.
type ChaosBenchReport struct {
	Dataset     string  `json:"dataset"`
	Paths       int     `json:"paths"`
	Concurrency int     `json:"concurrency"`
	DurationS   float64 `json:"duration_s"`

	// Storm phase: a cold-decode request storm against one node whose
	// admission budget fits a single decode. Sheds must answer 503 +
	// Retry-After, every path must eventually serve, and the tracked
	// in-flight decode bytes must never exceed the budget.
	Storm ChaosStorm `json:"storm"`

	// Faulted phase: a fault-injected 3-node cluster behind the router.
	// Every 2xx body must be byte-identical to the fault-free golden,
	// and the client-visible error rate must stay bounded (the router
	// absorbs most injected faults via replica failover).
	Faulted ChaosFaulted `json:"faulted"`

	// Corrupt phase: one node's mounted blob is bit-flipped after mount
	// (the content keys were hashed from healthy bytes, as with bit rot).
	// The corrupt node must keep serving correct chunk bytes via peer
	// repair, and the router must serve every path byte-identically.
	Corrupt ChaosCorrupt `json:"corrupt"`
}

// ChaosStorm is the admission-storm phase's measurement.
type ChaosStorm struct {
	Clients        int   `json:"clients"`
	Served         int64 `json:"served"`
	Shed503        int64 `json:"shed_503"`
	OtherStatus    int64 `json:"other_status"`
	HighWaterBytes int64 `json:"high_water_bytes"`
	CapacityBytes  int64 `json:"capacity_bytes"`
}

// ChaosFaulted is the fault-injection phase's measurement.
type ChaosFaulted struct {
	Requests       int64   `json:"requests"`
	OK             int64   `json:"ok"`
	Errors         int64   `json:"errors"`
	ErrorRate      float64 `json:"error_rate"`
	Status500      int64   `json:"status_500"`
	ByteMismatches int64   `json:"byte_mismatches"`
	// Injected fault totals across the three nodes — proof the run
	// actually exercised the fault paths.
	FaultsInjected int64 `json:"faults_injected"`
}

// ChaosCorrupt is the corruption/repair phase's measurement.
type ChaosCorrupt struct {
	DirectPaths   int     `json:"direct_paths"`
	RepairHits    float64 `json:"repair_hits"`
	CorruptSeen   float64 `json:"corrupt_payloads_seen"`
	RoutedOK      bool    `json:"routed_byte_identical"`
	DirectHealthy bool    `json:"direct_chunks_healthy"`
}

const (
	chaosConcurrency = 8
	chaosWindow      = 1200 * time.Millisecond
	chaosMaxErrRate  = 0.10
)

// ChaosBench drives the serving stack through its failure modes with the
// deterministic fault harness: an admission storm that must shed instead
// of blowing the decode budget, a fault-injected cluster whose surviving
// responses must stay byte-identical to a fault-free node's, and a
// corrupted mount whose chunks must keep flowing via peer repair.
func ChaosBench(w io.Writer, s Sizes, jsonPath string) error {
	section(w, "Chaos: admission storm, fault-injected cluster, corruption + peer repair")
	plan := PaperPlansByPreset("hurricane-wf")
	p, err := s.prepare(plan)
	if err != nil {
		return err
	}
	var specs []crossfield.FieldSpec
	var fields []string
	for _, a := range p.anchors {
		specs = append(specs, crossfield.FieldSpec{Field: a})
		fields = append(fields, a.Name)
	}
	specs = append(specs, crossfield.FieldSpec{Field: p.target, Codec: p.codec})
	fields = append(fields, p.target.Name)
	chunkVoxels := (s.HurNZ/4 + 1) * s.HurNY * s.HurNX
	res, err := crossfield.CompressDataset(specs, crossfield.Rel(1e-3),
		crossfield.WithChunks(chunkVoxels))
	if err != nil {
		return err
	}
	chunks, err := crossfield.ChunkCount(mustPayload(res.Blob, plan.Target))
	if err != nil {
		return err
	}
	mountNames := []string{"t0", "t1", "t2", "t3"}
	var paths []string
	for _, mnt := range mountNames {
		for _, f := range fields {
			paths = append(paths, fmt.Sprintf("/v1/archives/%s/fields/%s", mnt, f))
			for ci := 0; ci < chunks; ci++ {
				paths = append(paths, fmt.Sprintf("/v1/archives/%s/fields/%s/chunks/%d", mnt, f, ci))
			}
		}
	}

	// Golden bodies from a fault-free solo node.
	solo := serve.New(serve.Config{})
	defer solo.Close()
	for _, mnt := range mountNames {
		if err := solo.Mount(mnt, res.Blob); err != nil {
			return err
		}
	}
	soloTS := httptest.NewServer(solo.Handler())
	defer soloTS.Close()
	golden := make(map[string][]byte, len(paths))
	for _, path := range paths {
		body, err := identityGet(soloTS.Client(), soloTS.URL+path)
		if err != nil {
			return err
		}
		golden[path] = body
	}

	report := &ChaosBenchReport{
		Dataset: plan.Dataset, Paths: len(paths),
		Concurrency: chaosConcurrency, DurationS: chaosWindow.Seconds(),
	}
	if err := chaosStorm(w, &report.Storm); err != nil {
		return err
	}
	if err := chaosFaulted(w, &report.Faulted, res.Blob, mountNames, paths, golden); err != nil {
		return err
	}
	if err := chaosCorrupt(w, &report.Corrupt, res.Blob, mountNames, fields, chunks, paths, golden); err != nil {
		return err
	}

	if jsonPath != "" {
		enc, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(enc, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "  wrote %s\n", jsonPath)
	}
	return nil
}

// chaosStorm floods one node whose admission budget fits a single decode
// with concurrent cold requests for large noise fields. Every client
// retries on 503 until served; the invariants are (a) only 200/503 are
// ever answered, (b) at least one request was shed, (c) the controller's
// high-water mark never passed the budget.
func chaosStorm(w io.Writer, out *ChaosStorm) error {
	const n = 96
	data := make([]float32, n*n*n)
	rng := rand.New(rand.NewSource(17))
	for i := range data {
		data[i] = rng.Float32()
	}
	f := crossfield.MustNewField("noise", data, n, n, n)
	comp, err := crossfield.CompressBaseline(f, crossfield.Rel(1e-3))
	if err != nil {
		return err
	}
	srv := serve.New(serve.Config{
		DecodeBudgetBytes: 1,  // weights clamp to capacity: one cold decode at a time
		AdmissionQueue:    -1, // no wait queue: not-now means shed
	})
	defer srv.Close()
	const clients = 12
	for i := 0; i < clients; i++ {
		if err := srv.Mount(fmt.Sprintf("n%d", i), comp.Blob); err != nil {
			return err
		}
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var served, shed, other atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			path := fmt.Sprintf("/v1/archives/n%d/fields/n%d", i, i)
			for attempt := 0; attempt < 400; attempt++ {
				resp, err := http.Get(ts.URL + path)
				if err != nil {
					other.Add(1)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					served.Add(1)
					return
				case http.StatusServiceUnavailable:
					shed.Add(1)
					time.Sleep(5 * time.Millisecond)
				default:
					other.Add(1)
					return
				}
			}
			other.Add(1) // never served
		}(i)
	}
	wg.Wait()

	st := srv.AdmissionStats()
	out.Clients = clients
	out.Served = served.Load()
	out.Shed503 = shed.Load()
	out.OtherStatus = other.Load()
	out.HighWaterBytes = st.HighWaterBytes
	out.CapacityBytes = st.CapacityBytes
	fmt.Fprintf(w, "  storm: %d clients, %d served, %d shed (503), high water %d / budget %d bytes\n",
		out.Clients, out.Served, out.Shed503, out.HighWaterBytes, out.CapacityBytes)
	if out.OtherStatus != 0 {
		return fmt.Errorf("storm: %d responses were neither 200 nor 503", out.OtherStatus)
	}
	if out.Served != clients {
		return fmt.Errorf("storm: only %d/%d clients ever served", out.Served, clients)
	}
	if out.Shed503 == 0 {
		return fmt.Errorf("storm: admission never shed under %d concurrent cold decodes", clients)
	}
	if out.HighWaterBytes > out.CapacityBytes {
		return fmt.Errorf("storm: in-flight decode bytes %d exceeded budget %d",
			out.HighWaterBytes, out.CapacityBytes)
	}
	return nil
}

// chaosFaulted runs seeded closed-loop clients against a 3-node cluster
// whose every node sits behind the deterministic fault injector. The
// router absorbs most faults via replica failover; whatever still
// answers 2xx must be byte-identical to the fault-free golden.
func chaosFaulted(w io.Writer, out *ChaosFaulted, blob []byte, mountNames, paths []string, golden map[string][]byte) error {
	const nodes = 3
	injectors := make([]*faultinject.Injector, nodes)
	urls := make([]string, nodes)
	for i := 0; i < nodes; i++ {
		srv := serve.New(serve.Config{})
		defer srv.Close()
		for _, mnt := range mountNames {
			if err := srv.Mount(mnt, blob); err != nil {
				return err
			}
		}
		injectors[i] = faultinject.New(faultinject.Config{
			Seed:     int64(100 + i),
			LatencyP: 0.15, Latency: 3 * time.Millisecond,
			ErrorP: 0.05,
			ResetP: 0.03,
			SlowP:  0.05, SlowChunk: 256, SlowDelay: time.Millisecond,
		})
		backend := httptest.NewServer(injectors[i].Middleware(srv.Handler()))
		defer backend.Close()
		urls[i] = backend.URL
	}
	rt, err := cluster.NewRouter(cluster.Config{
		Peers:           urls,
		HealthInterval:  200 * time.Millisecond,
		VirtualNodes:    512,
		RetryBackoff:    5 * time.Millisecond,
		RetryBackoffCap: 20 * time.Millisecond,
		// Injected resets hit health accounting through the data path;
		// a slightly deeper eject threshold keeps transient fault bursts
		// from emptying the ring.
		EjectAfter: 3,
		Seed:       7,
	})
	if err != nil {
		return err
	}
	defer rt.Close()
	front := httptest.NewServer(rt.Handler())
	defer front.Close()
	client := front.Client()

	// Warm every node's caches through the router, retrying through the
	// injected faults so the measurement window serves mostly hot paths.
	for _, path := range paths {
		warmed := false
		for attempt := 0; attempt < 20 && !warmed; attempt++ {
			if body, err := identityGet(client, front.URL+path); err == nil && bytes.Equal(body, golden[path]) {
				warmed = true
			}
		}
		if !warmed {
			return fmt.Errorf("warmup: %s never served correct bytes through the faulted cluster", path)
		}
	}

	var requests, ok, errs, s500, mismatch atomic.Int64
	stopc := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < chaosConcurrency; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rnd := rand.New(rand.NewSource(int64(g)*2654435761 + 11))
			for {
				select {
				case <-stopc:
					return
				default:
				}
				path := paths[rnd.Intn(len(paths))]
				requests.Add(1)
				req, rerr := http.NewRequest(http.MethodGet, front.URL+path, nil)
				if rerr != nil {
					errs.Add(1)
					continue
				}
				req.Header.Set("Accept-Encoding", "identity")
				resp, rerr := client.Do(req)
				if rerr != nil {
					errs.Add(1)
					continue
				}
				body, rerr := io.ReadAll(resp.Body)
				resp.Body.Close()
				switch {
				case rerr != nil:
					errs.Add(1)
				case resp.StatusCode == http.StatusOK:
					if bytes.Equal(body, golden[path]) {
						ok.Add(1)
					} else {
						mismatch.Add(1)
					}
				case resp.StatusCode >= 500 && resp.StatusCode != http.StatusBadGateway &&
					resp.StatusCode != http.StatusServiceUnavailable && resp.StatusCode != http.StatusGatewayTimeout:
					s500.Add(1)
				default:
					errs.Add(1)
				}
			}
		}(g)
	}
	time.Sleep(chaosWindow)
	close(stopc)
	wg.Wait()

	out.Requests = requests.Load()
	out.OK = ok.Load()
	out.Errors = errs.Load()
	out.Status500 = s500.Load()
	out.ByteMismatches = mismatch.Load()
	if out.Requests > 0 {
		out.ErrorRate = float64(out.Errors) / float64(out.Requests)
	}
	for _, inj := range injectors {
		c := inj.Counts()
		out.FaultsInjected += c.Latency + c.Errors + c.Resets + c.Slow
	}
	fmt.Fprintf(w, "  faulted: %d requests, %d ok, %d errors (%.1f%%), %d injected faults, %d mismatches, %d 5xx\n",
		out.Requests, out.OK, out.Errors, 100*out.ErrorRate, out.FaultsInjected, out.ByteMismatches, out.Status500)
	if out.ByteMismatches != 0 {
		return fmt.Errorf("faulted: %d 200-responses differed from the fault-free golden", out.ByteMismatches)
	}
	if out.Status500 != 0 {
		return fmt.Errorf("faulted: %d hard 5xx responses (want failures to surface as 502/503 only)", out.Status500)
	}
	if out.FaultsInjected == 0 {
		return fmt.Errorf("faulted: the injectors fired no faults — the harness tested nothing")
	}
	if out.ErrorRate > chaosMaxErrRate {
		return fmt.Errorf("faulted: client-visible error rate %.1f%% exceeds %.0f%%",
			100*out.ErrorRate, 100*chaosMaxErrRate)
	}
	return nil
}

// chaosCorrupt bit-flips one node's mounted payload bytes after mount —
// content keys were hashed from the healthy bytes, exactly like bit rot —
// and verifies the cluster serves on: the corrupt node's chunk routes
// stay healthy (peer fetch or peer repair), and every routed path is
// byte-identical to the golden.
func chaosCorrupt(w io.Writer, out *ChaosCorrupt, blob []byte, mountNames, fields []string, chunks int, paths []string, golden map[string][]byte) error {
	const nodes = 3
	servers := make([]*serve.Server, nodes)
	backends := make([]*httptest.Server, nodes)
	urls := make([]string, nodes)
	// Node 0 mounts a private copy so the post-mount corruption below
	// cannot touch the healthy replicas, which share the original blob.
	corruptCopy := append([]byte(nil), blob...)
	for i := 0; i < nodes; i++ {
		servers[i] = serve.New(serve.Config{})
		defer servers[i].Close()
		b := blob
		if i == 0 {
			b = corruptCopy
		}
		for _, mnt := range mountNames {
			if err := servers[i].Mount(mnt, b); err != nil {
				return err
			}
		}
		backends[i] = httptest.NewServer(servers[i].Handler())
		defer backends[i].Close()
		urls[i] = backends[i].URL
	}
	for i := 0; i < nodes; i++ {
		ac, err := cluster.NewAnchorClient(cluster.AnchorClientConfig{
			Self: urls[i], Peers: urls,
		})
		if err != nil {
			return err
		}
		servers[i].SetRemote(ac)
	}
	rt, err := cluster.NewRouter(cluster.Config{
		Peers:          urls,
		HealthInterval: 200 * time.Millisecond,
		VirtualNodes:   512,
		Seed:           7,
	})
	if err != nil {
		return err
	}
	defer rt.Close()
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	// Flip a byte inside the first anchor field's stored payload. Mounts
	// share the copy's backing array, so all of node 0's timesteps rot.
	ar, err := crossfield.OpenArchive(blob)
	if err != nil {
		return err
	}
	payload, err := ar.FieldPayload(fields[0])
	if err != nil {
		return err
	}
	off := bytes.Index(corruptCopy, payload)
	if off < 0 {
		return fmt.Errorf("corrupt: payload bytes of %q not found in blob", fields[0])
	}
	corruptCopy[off+len(payload)/2] ^= 0x40

	// The corrupt node's chunk routes must keep serving healthy bytes:
	// self-owned keys repair from a replica, remote-owned keys peer-fetch.
	out.DirectHealthy = true
	client := backends[0].Client()
	direct := 0
	for _, mnt := range mountNames {
		for _, f := range []string{fields[0], fields[len(fields)-1]} { // damaged anchor + dependent target
			for ci := 0; ci < chunks; ci++ {
				path := fmt.Sprintf("/v1/archives/%s/fields/%s/chunks/%d", mnt, f, ci)
				direct++
				body, err := identityGet(client, urls[0]+path)
				if err != nil || !bytes.Equal(body, golden[path]) {
					out.DirectHealthy = false
					return fmt.Errorf("corrupt: node 0 GET %s served wrong bytes (%v)", path, err)
				}
			}
		}
	}
	out.DirectPaths = direct

	// Every routed path — field routes included, which have no repair and
	// 502 on the corrupt node — must come back byte-identical: the router
	// fails 502s over to a healthy replica.
	out.RoutedOK = true
	for _, path := range paths {
		body, err := identityGet(front.Client(), front.URL+path)
		if err != nil || !bytes.Equal(body, golden[path]) {
			out.RoutedOK = false
			return fmt.Errorf("corrupt: routed GET %s differs from golden (%v)", path, err)
		}
	}

	out.RepairHits = scrapeMetric(client, urls[0], `cfserve_repair_total{outcome="hit"}`)
	out.CorruptSeen = scrapeMetric(client, urls[0], "cfserve_corrupt_payload_total")
	fmt.Fprintf(w, "  corrupt: %d direct chunk paths healthy on the rotted node, %v repair hits, %v corrupt payloads detected, routed byte-identical: %v\n",
		out.DirectPaths, out.RepairHits, out.CorruptSeen, out.RoutedOK)
	if out.CorruptSeen == 0 {
		return fmt.Errorf("corrupt: the damaged node never detected the corruption")
	}
	return nil
}

// scrapeMetric fetches base/metrics and returns the value of the first
// sample line starting with prefix (0 when absent or unparsable).
func scrapeMetric(client *http.Client, base, prefix string) float64 {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return 0
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(body), "\n") {
		if rest, ok := strings.CutPrefix(line, prefix); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err == nil {
				return v
			}
		}
	}
	return 0
}

// PaperPlansByPreset returns the named Table III plan.
func PaperPlansByPreset(preset string) crossfield.AnchorPlan {
	for _, p := range crossfield.PaperPlans() {
		if p.Preset == preset {
			return p
		}
	}
	panic("experiments: unknown preset " + preset)
}

// mustPayload pulls one field's payload out of an archive blob.
func mustPayload(blob []byte, field string) []byte {
	ar, err := crossfield.OpenArchive(blob)
	if err != nil {
		panic(err)
	}
	p, err := ar.FieldPayload(field)
	if err != nil {
		panic(err)
	}
	return p
}

// identityGet fetches url with identity encoding and returns the body.
func identityGet(client *http.Client, url string) ([]byte, error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Accept-Encoding", "identity")
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	return body, nil
}
