// Command cfbench regenerates every table and figure of the paper's
// evaluation on the synthetic datasets, plus the ablation studies.
// Serving latency is measured by perfbench (see perfbench/README.md).
//
// Usage:
//
//	cfbench                      # full suite at default (scaled) sizes
//	cfbench -exp tab2,fig8       # selected experiments
//	cfbench -small               # reduced sizes (seconds instead of minutes)
//	cfbench -out results/        # also write PGM figure renderings
//	cfbench -exp chunked         # chunked vs monolithic throughput,
//	                             # writes BENCH_chunked.json (-json to move)
//	cfbench -exp archive         # multi-field CFC3 dataset archive bench,
//	                             # writes BENCH_archive.json
//	cfbench -exp inference       # CFNN full-field forward pass (ms, MB/s,
//	                             # allocs), writes BENCH_inference.json
//	cfbench -exp chaos           # fault-injected cluster: admission storm
//	                             # sheds, 2xx byte-identity under faults,
//	                             # corruption + peer repair, writes
//	                             # BENCH_chaos.json
//	cfbench -cpuprofile cpu.out  # pprof profiles of the selected
//	cfbench -memprofile mem.out  # experiments, for perf work
//
// Experiments: tab1 tab2 tab3 fig1 fig5 fig6 fig8 fig9 ablation anchorsel
// throughput chunked archive inference chaos (fig7 is produced by fig6;
// both names are accepted). An unknown name exits with status 2.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	var (
		expFlag    = flag.String("exp", "all", "comma-separated experiments (tab1,tab2,tab3,fig1,fig5,fig6,fig7,fig8,fig9,ablation,anchorsel,throughput,chunked,archive,inference,chaos) or 'all'")
		small      = flag.Bool("small", false, "use reduced grid sizes (quick smoke run)")
		outDir     = flag.String("out", "", "directory for PGM figure renderings (optional)")
		seed       = flag.Int64("seed", 42, "dataset/training seed")
		jsonPath   = flag.String("json", "BENCH_chunked.json", "path for the chunked experiment's machine-readable report ('' disables)")
		archJSON   = flag.String("archivejson", "BENCH_archive.json", "path for the archive experiment's machine-readable report ('' disables)")
		infJSON    = flag.String("inferencejson", "BENCH_inference.json", "path for the inference experiment's machine-readable report ('' disables)")
		chaosJSON  = flag.String("chaosjson", "BENCH_chaos.json", "path for the chaos experiment's machine-readable report ('' disables)")
		cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile of the selected experiments to this file")
		memProfile = flag.String("memprofile", "", "write a pprof heap profile (taken after the experiments) to this file")
	)
	flag.Parse()

	sizes := experiments.Default()
	if *small {
		sizes = experiments.Small()
	}
	sizes.Seed = *seed

	w := os.Stdout
	exps := []struct {
		name string
		run  func() error
	}{
		{"tab1", func() error { return experiments.TableI(w, sizes) }},
		{"fig1", func() error { return experiments.FigI(w, sizes, *outDir) }},
		{"tab3", func() error { _, err := experiments.TableIII(w); return err }},
		{"fig5", func() error { return experiments.FigV(w, sizes) }},
		{"fig6", func() error { return experiments.FigVI(w, sizes, *outDir) }},
		{"tab2", func() error { _, err := experiments.TableII(w, sizes); return err }},
		{"fig8", func() error { _, err := experiments.FigVIII(w, sizes); return err }},
		{"fig9", func() error { return experiments.FigIX(w, sizes, *outDir) }},
		{"ablation", func() error {
			if err := experiments.AblationPredictors(w, sizes); err != nil {
				return err
			}
			if err := experiments.AblationHybridFit(w, sizes); err != nil {
				return err
			}
			if err := experiments.AblationAttention(w, sizes); err != nil {
				return err
			}
			if err := experiments.AblationBlockwiseHybrid(w, sizes); err != nil {
				return err
			}
			return experiments.AblationDirectValue(w, sizes)
		}},
		{"anchorsel", func() error { return experiments.AnchorSelection(w, sizes) }},
		{"throughput", func() error { return experiments.Throughput(w, sizes) }},
		{"chunked", func() error { return experiments.ChunkedThroughput(w, sizes, *jsonPath) }},
		{"archive", func() error { return experiments.ArchiveBench(w, sizes, *archJSON) }},
		{"inference", func() error { return experiments.InferenceBench(w, sizes, *infJSON) }},
		{"chaos", func() error { return experiments.ChaosBench(w, sizes, *chaosJSON) }},
	}

	valid := []string{"all", "fig7"}
	for _, e := range exps {
		valid = append(valid, e.name)
	}
	want, err := selectExperiments(*expFlag, valid)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cfbench:", err)
		os.Exit(2)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		// fatal() flushes profiles before os.Exit, so a failing experiment
		// still leaves usable pprof evidence (defers would be skipped).
		flushProfiles = append(flushProfiles, func() {
			pprof.StopCPUProfile()
			f.Close()
		})
		defer runFlushProfiles()
	}
	if *memProfile != "" {
		path := *memProfile
		flushProfiles = append(flushProfiles, func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "cfbench:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle allocations so the heap profile shows live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "cfbench:", err)
			}
		})
		defer runFlushProfiles()
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fatal(err)
		}
	}

	all := want["all"]
	for _, e := range exps {
		if !all && !want[e.name] && !(e.name == "fig6" && want["fig7"]) {
			continue
		}
		start := time.Now()
		if err := e.run(); err != nil {
			fatal(fmt.Errorf("%s: %w", e.name, err))
		}
		fmt.Printf("[%s done in %v]\n", e.name, time.Since(start).Round(time.Millisecond))
	}
}

// selectExperiments parses the comma-separated -exp value. An unknown
// name is a usage error, not an empty selection: a stale script must not
// pass by running nothing.
func selectExperiments(spec string, valid []string) (map[string]bool, error) {
	want := map[string]bool{}
	for _, e := range strings.Split(spec, ",") {
		name := strings.TrimSpace(e)
		if !slices.Contains(valid, name) {
			return nil, fmt.Errorf("unknown experiment %q; valid names: %s", name, strings.Join(valid, ", "))
		}
		want[name] = true
	}
	return want, nil
}

// flushProfiles holds the profile finalizers; they run on both the normal
// exit path (deferred in main) and the fatal path, at most once each.
var flushProfiles []func()

func runFlushProfiles() {
	for _, f := range flushProfiles {
		f()
	}
	flushProfiles = nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cfbench:", err)
	runFlushProfiles()
	os.Exit(1)
}
