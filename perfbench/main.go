// Command perfbench is the repository's benchmark. Each run drives one
// workload as a closed loop with a single caller, measures it for a fixed
// window, verifies every output against the library's own decode, and
// prints one JSON result as the last line of standard output:
//
//	bash perfbench/run.sh --workload hot --seed 1 --seconds 18 --trace 0
//
// The workloads measure the library (package crossfield) and the serving
// layer (internal/serve) from outside:
//
//   - pack: repeated CompressDataset of a CESM-ATM snapshot (the write path);
//   - hot: whole-field GETs of the Hurricane Wf field, answered from the
//     field cache with gzip;
//   - cold-chunk: GETs of Wf's chunks with every serve cache disabled;
//   - cold-field: GETs of the whole Wf field with every serve cache disabled.
//
// --trace 0 reports the end-to-end metrics of an untraced server. --trace 1
// reports the per-layer metrics: it interleaves the same requests between a
// traced and an untraced server, pulls each traced request's span tree from
// /debug/trace, times its own calls into the layers the server has no span
// for, and fails unless the layers add up to the end-to-end latency. README.md
// lists which end-to-end metric each per-layer metric should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
)

// config is one run's settings. The first four come from the command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workdir  string // scratch files: os.TempDir(), or the smoke test's own
	smoke    bool   // tiny grids and one set-up, for the smoke test
}

// sizes fixes the inputs of every workload. The grids are small enough
// that one operation takes at most ~150 ms, so an 18 s window holds the
// 100 samples a p90 with ten samples beyond it needs.
type sizes struct {
	hurNZ, hurNY, hurNX int // Hurricane grid (read workloads)
	hurChunkSlabs       int // z-slabs per chunk: 4 equal chunks
	cesmNY, cesmNX      int // CESM-ATM grid (pack)
	cesmChunkRows       int // rows per chunk: 4 equal chunks
	epochs, steps       int // CFNN training budget per codec; 0 is the library's default
	setups              int // set-ups per run; setup_s is their median
	warmups             int // discarded requests per server before the window
}

func sizesFor(smoke bool) sizes {
	if smoke {
		return sizes{
			hurNZ: 8, hurNY: 32, hurNX: 32, hurChunkSlabs: 2,
			cesmNY: 32, cesmNX: 64, cesmChunkRows: 8,
			epochs: 1, steps: 2, setups: 1, warmups: 1,
		}
	}
	return sizes{
		hurNZ: 24, hurNY: 64, hurNX: 64, hurChunkSlabs: 6,
		cesmNY: 160, cesmNX: 320, cesmChunkRows: 40,
		setups: 3, warmups: 4,
	}
}

// relBound is the value-range-relative error bound of every archive.
const relBound = 1e-3

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricDef names a metric and its unit. The catalogs below are the
// contract BENCHMARK.json declares; the smoke test checks they agree.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
	{"mib_per_s", "MiB/s"},
	{"wire_kib_per_op", "KiB"},
	{"ratio", "x"},
	{"xfield_gain", "x"},
	{"peak_rss_mb", "MiB"},
}

var perLayer = []metricDef{
	{"setup.generate_s", "s"},
	{"setup.train_s", "s"},
	{"setup.pack_s", "s"},
	{"setup.mount_s", "s"},
	{"setup.warm_s", "s"},
	{"serve.request_ms.p50", "ms"},
	{"serve.lookup_self_ms.p50", "ms"},
	{"serve.anchor_resolve_self_ms.p50", "ms"},
	{"serve.respond_ms.p50", "ms"},
	{"http.client_ms.p50", "ms"},
	{"serve.field_cache.hit_ratio", "ratio"},
	{"serve.chunk_cache.hit_ratio", "ratio"},
	{"serve.payload_cache.hit_ratio", "ratio"},
	{"serve.field_cache.bytes_per_entry", "B"},
	{"serve.resident_mb", "MiB"},
	{"serve.shed_frac", "ratio"},
	{"archive.payload_read_ms.p50", "ms"},
	{"archive.payload_reads_per_req", "count"},
	{"core.anchor_decode_ms.p50", "ms"},
	{"core.chunk_decode_ms.p50", "ms"},
	{"core.chunk_decode_mbps", "MiB/s"},
	{"core.field_decode_ms.p50", "ms"},
	{"core.field_decode_mbps", "MiB/s"},
	{"core.decodes_per_req", "count"},
	{"cfnn.infer_ms.p50", "ms"},
	{"core.compress.inference_s", "s"},
	{"core.compress.quantize_s", "s"},
	{"core.compress.predict_s", "s"},
	{"core.compress.huffman_s", "s"},
	{"core.compress.flate_s", "s"},
	{"archive.model_bytes", "B"},
	{"archive.dependent_payload_bytes", "B"},
	{"trace.overhead_ms", "ms"},
	{"trace.layer_residual", "ratio"},
	{"trace.client_residual", "ratio"},
}

// report collects a run's measurements under their catalog names. Layers a
// workload never reaches keep the value 0.
type report struct {
	attempted, failed int
	values            map[string]float64
	env               map[string]any
}

func newReport() *report {
	return &report{values: make(map[string]float64), env: make(map[string]any)}
}

func (r *report) set(name string, v float64) { r.values[name] = v }

// result renders the catalog the run's mode prints. Every value must be a
// finite number.
func (r *report) result(trace bool) (*result, error) {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	out := &result{Correct: true, Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]metric, len(defs))}
	for _, d := range defs {
		v := r.values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite (%v)", d.name, v)
		}
		out.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	if out.Attempted < 1 {
		return nil, errors.New("no operation completed in the timed window")
	}
	return out, nil
}

// run executes one configured run and returns its report.
func run(cfg config) (*report, error) {
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive, got %v", cfg.seconds)
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	sz := sizesFor(cfg.smoke)
	var (
		rep *report
		err error
	)
	switch cfg.workload {
	case "pack":
		rep, err = runPack(cfg, sz)
	case "hot", "cold-chunk", "cold-field":
		rep, err = runRead(cfg, sz)
	default:
		return nil, fmt.Errorf("unknown workload %q (want pack, hot, cold-chunk or cold-field)", cfg.workload)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	rep.env["workload"] = cfg.workload
	rep.env["seed"] = cfg.seed
	rep.env["seconds"] = cfg.seconds
	rep.env["trace"] = cfg.trace
	rep.env["go"] = runtime.Version()
	rep.env["gomaxprocs"] = runtime.GOMAXPROCS(0)
	rep.env["nproc"] = runtime.NumCPU()
	return rep, nil
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "pack, hot, cold-chunk or cold-field")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated data and the request order")
	flag.Float64Var(&cfg.seconds, "seconds", 18, "length of the timed window")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, 1: per-layer metrics")
	flag.Parse()
	cfg.workdir = os.TempDir()
	if trace != 0 && trace != 1 {
		fail(fmt.Errorf("--trace must be 0 or 1, got %d", trace))
	}
	cfg.trace = trace == 1
	rep, err := run(cfg)
	if err != nil {
		fail(err)
	}
	res, err := rep.result(cfg.trace)
	if err != nil {
		fail(err)
	}
	printTable(os.Stderr, res)
	env, err := json.Marshal(map[string]any{"env": rep.env})
	if err != nil {
		fail(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Printf("%s\n%s\n", env, line)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// printTable writes the metrics, one per line, for people reading the log.
func printTable(w io.Writer, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(&b, "  %-36s %14.4f %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "attempted %d, failed %d\n%s", res.Attempted, res.Failed, b.String())
}

// quantile returns the q-quantile of samples by linear interpolation
// between closest ranks (0 for no samples). samples is sorted in place.
func quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sort.Float64s(samples)
	pos := q * float64(len(samples)-1)
	lo := int(pos)
	if lo+1 >= len(samples) {
		return samples[len(samples)-1]
	}
	frac := pos - float64(lo)
	return samples[lo]*(1-frac) + samples[lo+1]*frac
}

// median is quantile(samples, 0.5).
func median(samples []float64) float64 { return quantile(samples, 0.5) }
