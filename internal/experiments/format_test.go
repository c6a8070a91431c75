package experiments

import (
	"strings"
	"testing"
)

func TestCellReportingRule(t *testing.T) {
	// The paper prints "/" where the baseline CR exceeds 32 (bit-rate < 1).
	high := &evalPoint{BaselineCR: 40, HybridCR: 44, HybridPayloadCR: 45}
	if cellBase(high) != "/" || cellOurs(high) != "/" {
		t.Fatalf("high-ratio cells = %q / %q, want '/'", cellBase(high), cellOurs(high))
	}
	low := &evalPoint{BaselineCR: 10, HybridCR: 11, HybridPayloadCR: 11.5}
	if cellBase(low) != "10.00" {
		t.Fatalf("baseline cell = %q", cellBase(low))
	}
	ours := cellOurs(low)
	if !strings.Contains(ours, "11.00") || !strings.Contains(ours, "+10.00%") {
		t.Fatalf("ours cell = %q", ours)
	}
}

func TestCRDelta(t *testing.T) {
	if got := crDelta(10, 12); got != "+20.00%" {
		t.Fatalf("delta = %q", got)
	}
	if got := crDelta(10, 9); got != "-10.00%" {
		t.Fatalf("delta = %q", got)
	}
	if got := crDelta(0, 5); got != "n/a" {
		t.Fatalf("delta = %q", got)
	}
}

func TestFmtWeights(t *testing.T) {
	if got := fmtWeights([]float64{1, 0.5}); got != "[1.000, 0.500]" {
		t.Fatalf("fmtWeights = %q", got)
	}
}

func TestDefaultAndSmallSizesSane(t *testing.T) {
	for _, s := range []Sizes{Default(), Small()} {
		if s.ScaleNZ < 4 || s.CESMNY < 16 || s.HurNZ < 4 {
			t.Fatalf("sizes too small: %+v", s)
		}
		if s.Epochs < 1 || s.Features3D < 1 || s.Features2D < 1 {
			t.Fatalf("training budget invalid: %+v", s)
		}
	}
	if len(TableIIBounds()) != 5 {
		t.Fatal("Table II uses five bounds")
	}
	if len(Fig8Bounds()) < 5 {
		t.Fatal("Fig 8 sweep too sparse")
	}
}
