package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	crossfield "repro"
	"repro/internal/nn"
)

// InferenceBenchRow is one timed configuration of the CFNN full-field
// forward-pass benchmark.
type InferenceBenchRow struct {
	Mode        string  `json:"mode"` // "cold" (fresh arena per pass) or "warm" (reused arena)
	Workers     int     `json:"workers"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	PassMS      float64 `json:"pass_ms"`
	MBps        float64 `json:"mbps"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
}

// InferenceBenchReport is the machine-readable output of InferenceBench,
// written as BENCH_inference.json so the inference hot path's latency and
// allocation behavior can be tracked across PRs alongside the end-to-end
// throughput reports.
type InferenceBenchReport struct {
	Dataset  string              `json:"dataset"`
	Field    string              `json:"field"`
	Dims     []int               `json:"dims"`
	MB       float64             `json:"mb"`
	Features int                 `json:"features"`
	Anchors  int                 `json:"anchors"`
	Rows     []InferenceBenchRow `json:"rows"`
}

// InferenceBench times the CFNN full-field forward pass (PredictDiffs) on
// the 3D hurricane target: cold (a fresh arena every pass, the legacy
// allocation profile) versus warm (one arena reused, as each chunk worker
// of an encode or decode reuses one, which is allocation-free at
// workers=1), at one worker and at
// GOMAXPROCS workers.
func InferenceBench(w io.Writer, s Sizes, jsonPath string) error {
	section(w, "CFNN inference: full-field forward pass")
	plan := crossfield.PaperPlans()[2] // Hurricane Wf
	p, err := s.prepare(plan)
	if err != nil {
		return err
	}
	model := p.codec.Model()
	anchors := fieldTensorsOf(p.anchors)
	mb := float64(p.target.Len()*4) / (1 << 20)
	report := &InferenceBenchReport{
		Dataset: plan.Dataset, Field: plan.Target,
		Dims: p.target.Dims(), MB: mb,
		Features: model.Cfg.Features, Anchors: len(anchors),
	}
	fmt.Fprintf(w, "field %s/%s, %v (%.2f MB), features %d, %d anchors, GOMAXPROCS %d:\n",
		plan.Dataset, plan.Target, p.target.Dims(), mb, model.Cfg.Features, len(anchors), workers())

	measure := func(mode string, nw int, arena *nn.Arena) error {
		// Warm up once so arena growth and lazy init are excluded.
		if _, err := model.PredictDiffsWith(anchors, arena, nw); err != nil {
			return err
		}
		iters := 0
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		for time.Since(start) < 300*time.Millisecond || iters < 3 {
			a := arena
			if a == nil {
				a = nn.NewArena()
			}
			if _, err := model.PredictDiffsWith(anchors, a, nw); err != nil {
				return err
			}
			iters++
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&m1)
		// The counters are process-wide, so the per-pass figures are
		// truncated as go test -benchmem truncates them: another
		// goroutine's stray allocation over many passes reads 0, while a
		// pass that allocates reads at least 1.
		n := uint64(iters)
		row := InferenceBenchRow{
			Mode: mode, Workers: nw, GOMAXPROCS: runtime.GOMAXPROCS(0),
			PassMS:      elapsed.Seconds() * 1000 / float64(iters),
			MBps:        mb * float64(iters) / elapsed.Seconds(),
			AllocsPerOp: float64((m1.Mallocs - m0.Mallocs) / n),
			BytesPerOp:  float64((m1.TotalAlloc - m0.TotalAlloc) / n),
		}
		report.Rows = append(report.Rows, row)
		fmt.Fprintf(w, "  %-5s w=%-2d  %8.2f ms/pass  %8.2f MB/s  %10.1f allocs/op  %12.0f B/op\n",
			mode, nw, row.PassMS, row.MBps, row.AllocsPerOp, row.BytesPerOp)
		return nil
	}

	if err := measure("cold", 1, nil); err != nil {
		return err
	}
	warm := nn.NewArena()
	if err := measure("warm", 1, warm); err != nil {
		return err
	}
	if workers() > 1 {
		if err := measure("warm", workers(), warm); err != nil {
			return err
		}
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
