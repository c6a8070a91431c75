package crossfield_test

import (
	"math"
	"strings"
	"sync"
	"testing"

	crossfield "repro"
)

// archiveTestDataset builds four correlated fields: three anchors and one
// target that is a smooth function of them, so a tiny CFNN can learn the
// coupling quickly.
func archiveTestDataset(t *testing.T) (target *crossfield.Field, anchors []*crossfield.Field) {
	t.Helper()
	nz, ny, nx := 8, 18, 20
	n := nz * ny * nx
	u := make([]float32, n)
	v := make([]float32, n)
	p := make([]float32, n)
	w := make([]float32, n)
	idx := 0
	for k := 0; k < nz; k++ {
		for i := 0; i < ny; i++ {
			for j := 0; j < nx; j++ {
				// A fast oscillation shared across the fields: Lorenzo
				// struggles with it, but W is pointwise-linear in the
				// anchors, so cross-field prediction recovers it.
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
	target = crossfield.MustNewField("W", w, nz, ny, nx)
	anchors = []*crossfield.Field{
		crossfield.MustNewField("U", u, nz, ny, nx),
		crossfield.MustNewField("V", v, nz, ny, nx),
		crossfield.MustNewField("PRES", p, nz, ny, nx),
	}
	return target, anchors
}

func trainArchiveCodec(t *testing.T, target *crossfield.Field, anchors []*crossfield.Field) *crossfield.Codec {
	t.Helper()
	codec, err := crossfield.Train(target, anchors, crossfield.Training{
		Features: 6, Epochs: 4, StepsPerEpoch: 8, Batch: 1, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return codec
}

// The acceptance property: CompressDataset on correlated fields →
// OpenArchive → every field decompresses within its own bound via
// Archive.Field(name), with zero anchors passed by the caller.
func TestDatasetArchiveRoundTripNoAnchorCeremony(t *testing.T) {
	target, anchors := archiveTestDataset(t)
	codec := trainArchiveCodec(t, target, anchors)

	specs := []crossfield.FieldSpec{
		{Field: anchors[0]},
		{Field: anchors[1]},
		{Field: anchors[2]},
		{Field: target, Codec: codec},
	}
	res, err := crossfield.CompressDataset(specs, crossfield.Rel(1e-3))
	if err != nil {
		t.Fatal(err)
	}
	if !crossfield.IsArchive(res.Blob) {
		t.Fatal("CompressDataset did not produce a CFC3 archive")
	}
	if len(res.Stats.Fields) != 4 {
		t.Fatalf("Stats.Fields has %d entries, want 4", len(res.Stats.Fields))
	}

	ar, err := crossfield.OpenArchive(res.Blob)
	if err != nil {
		t.Fatal(err)
	}
	if got := ar.Fields(); len(got) != 4 {
		t.Fatalf("Fields() = %v", got)
	}
	orig := map[string]*crossfield.Field{
		"U": anchors[0], "V": anchors[1], "PRES": anchors[2], "W": target,
	}
	for name, of := range orig {
		st, ok := res.Stats.Fields[name]
		if !ok {
			t.Fatalf("no stats for %q", name)
		}
		back, err := ar.Field(name) // no anchors anywhere in sight
		if err != nil {
			t.Fatal(err)
		}
		if _, ok, err := crossfield.Verify(of, back, st.AbsEB); err != nil || !ok {
			t.Fatalf("field %q violated its bound (ok=%v, err=%v)", name, ok, err)
		}
		if st.MaxErr <= 0 || st.MaxErr > st.AbsEB*(1+1e-6) {
			t.Fatalf("field %q MaxErr = %g vs AbsEB %g", name, st.MaxErr, st.AbsEB)
		}
	}

	// The manifest records roles and dependencies.
	roles := map[string]string{}
	for _, fi := range ar.Manifest() {
		roles[fi.Name] = fi.Role
		if fi.Name == "W" {
			if len(fi.Anchors) != 3 || fi.Anchors[0] != "U" {
				t.Fatalf("W anchors = %v", fi.Anchors)
			}
			if math.IsNaN(fi.MaxErr) || fi.MaxErr > fi.AbsEB*(1+1e-6) {
				t.Fatalf("W manifest MaxErr = %g vs AbsEB %g", fi.MaxErr, fi.AbsEB)
			}
		}
	}
	for _, n := range []string{"U", "V", "PRES"} {
		if roles[n] != "anchor" {
			t.Fatalf("role of %s = %q, want anchor", n, roles[n])
		}
	}
	if roles["W"] != "dependent" {
		t.Fatalf("role of W = %q, want dependent", roles["W"])
	}
}

// Hybrid-in-archive must beat the baseline-only encoding of the same
// dependent field (payload vs payload: the CFNN model is a fixed cost that
// amortizes on production-size fields).
func TestDatasetArchiveHybridBeatsBaseline(t *testing.T) {
	target, anchors := archiveTestDataset(t)
	codec := trainArchiveCodec(t, target, anchors)

	base, err := crossfield.CompressBaseline(target, crossfield.Rel(1e-3))
	if err != nil {
		t.Fatal(err)
	}
	res, err := crossfield.CompressDataset([]crossfield.FieldSpec{
		{Field: anchors[0]}, {Field: anchors[1]}, {Field: anchors[2]},
		{Field: target, Codec: codec},
	}, crossfield.Rel(1e-3))
	if err != nil {
		t.Fatal(err)
	}
	wst := res.Stats.Fields["W"]
	hybridPayload := wst.CompressedBytes - wst.ModelBytes
	if hybridPayload >= base.Stats.CompressedBytes {
		t.Fatalf("hybrid payload %d B >= baseline %d B: cross-field prediction bought nothing",
			hybridPayload, base.Stats.CompressedBytes)
	}
}

// WithFieldBound applies per-field; the rest of the dataset keeps the
// default bound.
func TestDatasetArchivePerFieldBounds(t *testing.T) {
	target, anchors := archiveTestDataset(t)
	res, err := crossfield.CompressDataset([]crossfield.FieldSpec{
		{Field: anchors[0]}, {Field: anchors[1]}, {Field: anchors[2]}, {Field: target},
	}, crossfield.Rel(1e-3),
		crossfield.WithFieldBound("PRES", crossfield.Abs(0.001)))
	if err != nil {
		t.Fatal(err)
	}
	ar, err := crossfield.OpenArchive(res.Blob)
	if err != nil {
		t.Fatal(err)
	}
	for _, fi := range ar.Manifest() {
		if fi.Name == "PRES" {
			if fi.AbsEB != 0.001 {
				t.Fatalf("PRES abs eb = %g, want 0.001", fi.AbsEB)
			}
		} else if fi.Bound != crossfield.Rel(1e-3) {
			t.Fatalf("field %q bound = %v, want rel 1e-3", fi.Name, fi.Bound)
		}
	}
	back, err := ar.Field("PRES")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := crossfield.Verify(anchors[2], back, 0.001); err != nil || !ok {
		t.Fatalf("PRES violated its tightened bound (ok=%v, err=%v)", ok, err)
	}
	// A bound for a nonexistent field is a caller bug, not a no-op.
	if _, err := crossfield.CompressDataset([]crossfield.FieldSpec{{Field: target}},
		crossfield.Rel(1e-3), crossfield.WithFieldBound("NOPE", crossfield.Abs(1))); err == nil {
		t.Fatal("WithFieldBound on an unknown field accepted")
	}
}

// Chunked archives: every payload becomes a CFC2 container, and the
// round-trip still needs no anchors.
func TestDatasetArchiveChunked(t *testing.T) {
	target, anchors := archiveTestDataset(t)
	codec := trainArchiveCodec(t, target, anchors)
	res, err := crossfield.CompressDataset([]crossfield.FieldSpec{
		{Field: anchors[0]}, {Field: anchors[1]}, {Field: anchors[2]},
		{Field: target, Codec: codec},
	}, crossfield.Rel(1e-3), crossfield.WithChunks(3*18*20), crossfield.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	ar, err := crossfield.OpenArchive(res.Blob)
	if err != nil {
		t.Fatal(err)
	}
	for _, fi := range ar.Manifest() {
		if fi.Container != "CFC2" {
			t.Fatalf("field %q container = %s, want CFC2", fi.Name, fi.Container)
		}
	}
	back, err := ar.Field("W")
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats.Fields["W"]
	if _, ok, err := crossfield.Verify(target, back, st.AbsEB); err != nil || !ok {
		t.Fatalf("chunked archive W violated bound (ok=%v, err=%v)", ok, err)
	}
}

// Concurrent Field calls share one materialization per field and all see
// consistent data (run with -race to check the slot synchronization).
func TestArchiveConcurrentField(t *testing.T) {
	target, anchors := archiveTestDataset(t)
	codec := trainArchiveCodec(t, target, anchors)
	res, err := crossfield.CompressDataset([]crossfield.FieldSpec{
		{Field: anchors[0]}, {Field: anchors[1]}, {Field: anchors[2]},
		{Field: target, Codec: codec},
	}, crossfield.Rel(1e-3))
	if err != nil {
		t.Fatal(err)
	}
	ar, err := crossfield.OpenArchive(res.Blob)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"U", "V", "PRES", "W"}
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 4; k++ {
				if _, err := ar.Field(names[(g+k)%len(names)]); err != nil {
					errs <- err
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Same cached pointer for repeated calls.
	a1, _ := ar.Field("W")
	a2, _ := ar.Field("W")
	if a1 != a2 {
		t.Fatal("repeated Field calls returned different materializations")
	}
}

// Option misuse fails loudly at the right entry point.
func TestOptionValidation(t *testing.T) {
	f := crossfield.MustNewField("X", make([]float32, 64), 8, 8)
	if _, err := crossfield.CompressBaseline(f, crossfield.Abs(0.01),
		crossfield.WithChunks(-1)); err == nil {
		t.Fatal("WithChunks(-1) accepted")
	}
	if _, err := crossfield.CompressBaseline(f, crossfield.Abs(0.01),
		crossfield.WithWorkers(-3)); err == nil {
		t.Fatal("WithWorkers(-3) accepted")
	}
	if _, err := crossfield.CompressBaseline(f, crossfield.Abs(0.01),
		crossfield.ChunkOptions{ChunkVoxels: -5}); err == nil {
		t.Fatal("negative ChunkOptions.ChunkVoxels accepted")
	}
	if _, err := crossfield.CompressBaseline(f, crossfield.Abs(0.01),
		crossfield.ChunkOptions{Workers: -1}); err == nil {
		t.Fatal("negative ChunkOptions.Workers accepted")
	}
	_, err := crossfield.CompressBaseline(f, crossfield.Abs(0.01),
		crossfield.WithFieldBound("X", crossfield.Abs(0.1)))
	if err == nil || !strings.Contains(err.Error(), "CompressDataset") {
		t.Fatalf("WithFieldBound on a single-field call: err = %v", err)
	}
	// The deprecated struct still works as an Option on the happy path.
	res, err := crossfield.CompressBaseline(f, crossfield.Abs(0.01),
		crossfield.ChunkOptions{ChunkVoxels: 16})
	if err != nil {
		t.Fatal(err)
	}
	if n, err := crossfield.ChunkCount(res.Blob); err != nil || n < 2 {
		t.Fatalf("ChunkCount = %d, %v", n, err)
	}
}

// Dataset-level misuse: unknown anchors, cycles, duplicate names.
func TestCompressDatasetRejectsBadSpecs(t *testing.T) {
	target, anchors := archiveTestDataset(t)
	codec := trainArchiveCodec(t, target, anchors)
	// Codec's anchors are not in the dataset.
	if _, err := crossfield.CompressDataset([]crossfield.FieldSpec{
		{Field: target, Codec: codec},
	}, crossfield.Rel(1e-3)); err == nil {
		t.Fatal("missing anchor fields accepted")
	}
	// Duplicate field names.
	if _, err := crossfield.CompressDataset([]crossfield.FieldSpec{
		{Field: anchors[0]}, {Field: anchors[0]},
	}, crossfield.Rel(1e-3)); err == nil {
		t.Fatal("duplicate field accepted")
	}
}

// The progressive base-layer budget: on the paper's Hurricane Wf target
// (hybrid on Uf, Vf, Pf) packed in four levels, a preview reader fetches
// at most a quarter of the full-bound payload. The grid matters: below
// 24×128×128 the per-chunk model and table overhead dominates the layer
// bytes and the ratio stops measuring the layering.
func TestProgressiveBaseLayerBudget(t *testing.T) {
	const nz, ny, nx = 24, 128, 128
	ds, err := crossfield.GenerateHurricane(nz, ny, nx, 44)
	if err != nil {
		t.Fatal(err)
	}
	target := ds.MustField("Wf")
	anchors, err := ds.Fieldset("Uf", "Vf", "Pf")
	if err != nil {
		t.Fatal(err)
	}
	codec, err := crossfield.Train(target, anchors, crossfield.Training{
		Features: 6, Epochs: 3, StepsPerEpoch: 6, Batch: 1, Seed: 51,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := crossfield.CompressDataset([]crossfield.FieldSpec{
		{Field: anchors[0]}, {Field: anchors[1]}, {Field: anchors[2]},
		{Field: target, Codec: codec},
	}, crossfield.Rel(1e-3),
		crossfield.WithChunks((nz/4+1)*ny*nx), crossfield.WithProgressive(4))
	if err != nil {
		t.Fatal(err)
	}
	ar, err := crossfield.OpenArchive(res.Blob)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := ar.FieldPayload("Wf")
	if err != nil {
		t.Fatal(err)
	}
	prefixes, err := crossfield.PayloadLevelBytes(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(prefixes) != 4 {
		t.Fatalf("Wf has %d levels, want 4", len(prefixes))
	}
	full := prefixes[len(prefixes)-1]
	ratio := float64(prefixes[0]) / float64(full)
	t.Logf("Wf base layer %d B of %d B (%.3f)", prefixes[0], full, ratio)
	if ratio > 0.25 {
		t.Fatalf("Wf base layer is %.1f%% of the full payload, budget is 25%%", 100*ratio)
	}
}
