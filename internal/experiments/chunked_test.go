package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

func TestChunkedThroughputReport(t *testing.T) {
	jsonPath := filepath.Join(t.TempDir(), "BENCH_chunked.json")
	var buf bytes.Buffer
	if err := ChunkedThroughput(&buf, Small(), jsonPath); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"monolithic", "chunked", "MB/s", "hybrid"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var report ChunkedBenchReport
	if err := json.Unmarshal(raw, &report); err != nil {
		t.Fatal(err)
	}
	if report.Dataset != "Hurricane" || len(report.Rows) < 4 {
		t.Fatalf("unexpected report: dataset %q, %d rows", report.Dataset, len(report.Rows))
	}
	var monolithic, chunked bool
	for _, r := range report.Rows {
		if r.CompressMBps <= 0 || r.DecompressMBps <= 0 || r.Ratio <= 1 {
			t.Fatalf("degenerate row: %+v", r)
		}
		switch r.Mode {
		case "monolithic":
			monolithic = true
			if r.Chunks != 1 {
				t.Fatalf("monolithic row with %d chunks", r.Chunks)
			}
		case "chunked":
			chunked = true
			if r.Chunks < 2 {
				t.Fatalf("chunked row with %d chunks", r.Chunks)
			}
		default:
			t.Fatalf("unknown mode %q", r.Mode)
		}
	}
	if !monolithic || !chunked {
		t.Fatal("report missing a mode")
	}
}

// TestInferenceBenchReport checks BENCH_inference.json at Small sizes:
// every row records the GOMAXPROCS it ran under, and the warm one-worker
// pass, which reuses one arena, allocates nothing.
func TestInferenceBenchReport(t *testing.T) {
	jsonPath := filepath.Join(t.TempDir(), "BENCH_inference.json")
	var buf bytes.Buffer
	if err := InferenceBench(&buf, Small(), jsonPath); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var report InferenceBenchReport
	if err := json.Unmarshal(raw, &report); err != nil {
		t.Fatal(err)
	}
	warm1 := false
	for _, r := range report.Rows {
		if r.GOMAXPROCS != runtime.GOMAXPROCS(0) {
			t.Fatalf("row %+v: gomaxprocs %d, want %d", r, r.GOMAXPROCS, runtime.GOMAXPROCS(0))
		}
		if r.Mode == "warm" && r.Workers == 1 {
			warm1 = true
			if r.AllocsPerOp != 0 {
				t.Fatalf("warm w=1 row allocated %v objects per pass, want 0", r.AllocsPerOp)
			}
		}
	}
	if !warm1 {
		t.Fatalf("report has no warm w=1 row: %+v", report.Rows)
	}
}
