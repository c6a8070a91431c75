package crossfield_test

import (
	"bytes"
	"strings"
	"testing"

	crossfield "repro"
)

// stagesByName indexes a FieldTimings' stage list.
func stagesByName(f *crossfield.FieldTimings) map[string]crossfield.StageTiming {
	out := make(map[string]crossfield.StageTiming, len(f.Stages))
	for _, s := range f.Stages {
		out[s.Stage] = s
	}
	return out
}

// WithStageTimings yields one FieldTimings per field in archive write
// order, with the pipeline's stage names, and never changes output bytes.
func TestWithStageTimingsDataset(t *testing.T) {
	target, anchors := archiveTestDataset(t)
	codec := trainArchiveCodec(t, target, anchors)
	specs := []crossfield.FieldSpec{
		{Field: anchors[0]},
		{Field: anchors[1]},
		{Field: anchors[2]},
		{Field: target, Codec: codec},
	}

	plain, err := crossfield.CompressDataset(specs, crossfield.Rel(1e-3))
	if err != nil {
		t.Fatal(err)
	}
	var tm crossfield.DatasetTimings
	timed, err := crossfield.CompressDataset(specs, crossfield.Rel(1e-3),
		crossfield.WithStageTimings(&tm))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain.Blob, timed.Blob) {
		t.Fatal("WithStageTimings changed the archive bytes")
	}

	if len(tm.Fields) != len(specs) {
		t.Fatalf("got timings for %d fields, want %d", len(tm.Fields), len(specs))
	}
	// Write order puts the dependent last.
	if got := tm.Fields[len(tm.Fields)-1].Name; got != "W" {
		t.Fatalf("last timed field = %q, want the dependent \"W\"", got)
	}
	for _, want := range []string{"U", "V", "PRES", "W"} {
		ft := tm.For(want)
		if ft == nil {
			t.Fatalf("no timings recorded for field %q", want)
		}
		st := stagesByName(ft)
		need := []string{"quantize", "predict", "huffman", "flate"}
		if want == "W" {
			need = append(need, "inference")
		}
		for _, stage := range need {
			cell, ok := st[stage]
			if !ok {
				t.Errorf("field %q: missing stage %q (have %v)", want, stage, ft.Stages)
				continue
			}
			if cell.Count < 1 || cell.Nanos < 0 {
				t.Errorf("field %q stage %q: count=%d nanos=%d", want, stage, cell.Count, cell.Nanos)
			}
		}
		if want != "W" {
			if _, ok := st["inference"]; ok {
				t.Errorf("baseline field %q recorded an inference stage", want)
			}
		}
		if ft.Seconds() < 0 {
			t.Errorf("field %q: negative total %v", want, ft.Seconds())
		}
	}
	if tm.For("NOPE") != nil {
		t.Error("For on an unknown field returned non-nil")
	}
}

// Chunked payloads run the per-chunk stages once per chunk; the shared
// Stages aggregator must see every worker's contribution.
func TestWithStageTimingsChunked(t *testing.T) {
	target, anchors := archiveTestDataset(t)
	codec := trainArchiveCodec(t, target, anchors)
	slabVoxels := 18 * 20
	var tm crossfield.DatasetTimings
	res, err := crossfield.CompressDataset([]crossfield.FieldSpec{
		{Field: anchors[0]},
		{Field: anchors[1]},
		{Field: anchors[2]},
		{Field: target, Codec: codec},
	}, crossfield.Rel(1e-3),
		crossfield.WithChunks(2*slabVoxels),
		crossfield.WithStageTimings(&tm))
	if err != nil {
		t.Fatal(err)
	}
	if !crossfield.IsArchive(res.Blob) {
		t.Fatal("not an archive")
	}
	// 8 slabs at 2 slabs per chunk → 4 chunks per field.
	for _, name := range []string{"U", "W"} {
		ft := tm.For(name)
		if ft == nil {
			t.Fatalf("no timings for %q", name)
		}
		st := stagesByName(ft)
		if got := st["quantize"].Count; got != 4 {
			t.Errorf("field %q: quantize ran %d times, want once per chunk (4)", name, got)
		}
		if got := st["huffman"].Count; got != 4 {
			t.Errorf("field %q: huffman ran %d times, want 4", name, got)
		}
	}
	// Each chunk of a dependent field runs its own inference, over its own
	// anchor views; a baseline field runs none.
	if got := stagesByName(tm.For("W"))["inference"].Count; got != 4 {
		t.Errorf("chunked hybrid field: inference ran %d times, want once per chunk (4)", got)
	}
	if got := stagesByName(tm.For("U"))["inference"].Count; got != 0 {
		t.Errorf("baseline field: inference ran %d times, want 0", got)
	}
}

// Single-field entry points reject the dataset-only option, loudly.
func TestWithStageTimingsSingleFieldRejected(t *testing.T) {
	f := crossfield.MustNewField("X", make([]float32, 64), 8, 8)
	var tm crossfield.DatasetTimings
	_, err := crossfield.CompressBaseline(f, crossfield.Abs(0.01),
		crossfield.WithStageTimings(&tm))
	if err == nil || !strings.Contains(err.Error(), "CompressDataset") {
		t.Fatalf("WithStageTimings on a single-field call: err = %v", err)
	}
	if _, err := crossfield.CompressBaseline(f, crossfield.Abs(0.01),
		crossfield.WithStageTimings(nil)); err == nil {
		t.Fatal("WithStageTimings(nil) accepted")
	}
}
