package main

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"
)

type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestSmoke runs every workload BENCHMARK.json declares briefly on tiny
// grids, untraced and traced, and checks that each run prints exactly the
// declared metrics with their units, that no operation failed, and that
// every end-to-end metric is non-zero.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bm benchmarkJSON
	if err := json.Unmarshal(raw, &bm); err != nil {
		t.Fatal(err)
	}
	if len(bm.Workloads) == 0 {
		t.Fatal("BENCHMARK.json declares no workloads")
	}
	for _, w := range bm.Workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.Name, trace), func(t *testing.T) {
				rep, err := run(config{workload: w.Name, seed: 3, seconds: 0.3, trace: trace, workdir: t.TempDir(), smoke: true})
				if err != nil {
					t.Fatal(err)
				}
				res, err := rep.result(trace)
				if err != nil {
					t.Fatal(err)
				}
				if res.Failed != 0 {
					t.Errorf("%d of %d operations failed", res.Failed, res.Attempted)
				}
				want := bm.EndToEnd
				if trace {
					want = bm.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("printed %d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s is not printed", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s: unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					case !trace && got.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, got.Value)
					}
				}
				if shed := res.Metrics["serve.shed_frac"]; trace && shed.Value != 0 {
					t.Errorf("serve.shed_frac = %v, want 0", shed.Value)
				}
			})
		}
	}
}
