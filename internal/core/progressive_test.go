package core

import (
	"bytes"
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/cfnn"
	"repro/internal/chunk"
	"repro/internal/container"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// synthField builds a smooth-ish field with some noise so prediction has
// signal to exploit but residuals are nonzero.
func synthField(rng *rand.Rand, dims ...int) *tensor.Tensor {
	t := tensor.New(dims...)
	d := t.Data()
	phase := rng.Float64() * 5
	for i := range d {
		d[i] = float32(math.Sin(float64(i)/7+phase)*4 + rng.NormFloat64()*0.2)
	}
	return t
}

func maxAbsDiff(a, b []float32) float64 {
	m := 0.0
	for i := range a {
		e := math.Abs(float64(a[i]) - float64(b[i]))
		if e > m {
			m = e
		}
	}
	return m
}

// progCase exercises one configuration, monolithic or chunked by
// req.ChunkVoxels, end to end and returns the measured per-level errors.
func progCase(t *testing.T, field *tensor.Tensor, req EncodeRequest) []float64 {
	t.Helper()
	res, err := compress(field, req)
	if err != nil {
		t.Fatalf("compress: %v", err)
	}
	blob, st := res.Blob, res.Stats
	spec, err := PayloadLevelSpecReader(bytes.NewReader(blob), int64(len(blob)))
	if err != nil {
		t.Fatalf("level spec: %v", err)
	}
	wantLevels := req.Progressive.Levels
	if wantLevels == 0 {
		wantLevels = 2
	}
	if spec.Levels != wantLevels {
		t.Fatalf("spec reports %d levels, want %d", spec.Levels, wantLevels)
	}

	// Reference: the same compression without layering must reconstruct
	// bit-identically to the full-level progressive decode.
	plain := req
	plain.Progressive = nil
	ref0, err := compress(field, plain)
	if err != nil {
		t.Fatalf("compress plain: %v", err)
	}
	refBlob := ref0.Blob
	ref, err := Decompress(refBlob, nil)
	if err != nil {
		t.Fatalf("decompress plain: %v", err)
	}

	maxAbs := 0.0
	for _, v := range field.Data() {
		if a := math.Abs(float64(v)); a > maxAbs {
			maxAbs = a
		}
	}
	errs := make([]float64, spec.Levels)
	for l := 0; l < spec.Levels; l++ {
		recon, _, ach, err := decodeBlob(blob, Request{Chunk: Whole, Level: l})
		if err != nil {
			t.Fatalf("decode level %d: %v", l, err)
		}
		measured := maxAbsDiff(field.Data(), recon.Data())
		errs[l] = measured
		bound := spec.Bound(l, st.AbsEB)
		if measured > quant.Tolerance(bound, maxAbs) {
			t.Fatalf("level %d: measured err %g exceeds advertised bound %g", l, measured, bound)
		}
		// The compressor recorded the achieved error from the exact same
		// reconstruction the decoder just produced; they must agree.
		if ach != measured {
			t.Fatalf("level %d: recorded achieved err %g != measured %g", l, ach, measured)
		}
		if l == spec.Levels-1 {
			for i, v := range recon.Data() {
				if math.Float32bits(v) != math.Float32bits(ref.Data()[i]) {
					t.Fatalf("full-level decode not bit-identical to non-progressive at %d: %v vs %v", i, v, ref.Data()[i])
				}
			}
		}
	}
	for l := 1; l < len(errs); l++ {
		if errs[l] > errs[l-1] {
			t.Fatalf("level %d error %g worse than level %d error %g", l, errs[l], l-1, errs[l-1])
		}
	}

	// Full decode through the generic path must also take the layered
	// route and match level-0 decode via LevelFull alias.
	full, err := Decompress(blob, nil)
	if err != nil {
		t.Fatalf("decompress layered: %v", err)
	}
	if maxAbsDiff(full.Data(), ref.Data()) != 0 {
		t.Fatal("Decompress of layered blob differs from non-progressive decode")
	}
	return errs
}

// TestProgressivePropertySweep is the refinement-correctness sweep: random
// dims, bounds, level counts, chunking, and worker counts. Every layer
// prefix must reconstruct within its advertised bound, errors must be
// monotone non-increasing in level, and the full prefix must be
// bit-identical to the non-progressive pipeline's output.
func TestProgressivePropertySweep(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dimsChoices := [][]int{
		{240}, {31, 17}, {16, 16}, {9, 40}, {6, 10, 12}, {4, 7, 9}, {3, 25, 11},
	}
	for c := 0; c < 60; c++ {
		dims := dimsChoices[rng.Intn(len(dimsChoices))]
		field := synthField(rng, dims...)
		var req EncodeRequest
		switch rng.Intn(3) {
		case 0:
			req.Bound = quant.AbsBound(math.Pow(10, -1-float64(rng.Intn(3))))
			req.Progressive = &ProgressiveSpec{Levels: 2 + rng.Intn(4)}
		case 1:
			req.Bound = quant.RelBound(math.Pow(10, -2-float64(rng.Intn(2))))
			req.Progressive = &ProgressiveSpec{Levels: 2 + rng.Intn(4)}
		default:
			eb := math.Pow(10, -2-float64(rng.Intn(2)))
			req.Bound = quant.AbsBound(eb)
			req.Progressive = &ProgressiveSpec{PreviewBound: eb * float64(5+rng.Intn(60))}
		}
		if rng.Intn(2) == 1 {
			req.ChunkVoxels = 200 + rng.Intn(800)
		}
		progCase(t, field, req)
	}
}

// TestProgressiveHybrid runs the layered pipeline through the cross-field
// method: anchors at compress and decode time, per-level bounds held, and
// the full level bit-identical to the plain hybrid pipeline.
func TestProgressiveHybrid(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n = 24
	anchor := tensor.New(n, n)
	target := tensor.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			base := math.Sin(float64(i)/3) * math.Cos(float64(j)/4)
			anchor.Set2(float32(base*8), i, j)
			target.Set2(float32(base*5+rng.NormFloat64()*0.1), i, j)
		}
	}
	m, err := cfnn.New(cfnn.Config{SpatialRank: 2, NumAnchors: 1, Features: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Train([]*tensor.Tensor{anchor}, target, cfnn.TrainConfig{
		Epochs: 1, StepsPerEpoch: 2, Batch: 1, Seed: 4,
	}); err != nil {
		t.Fatal(err)
	}
	anchors := []*tensor.Tensor{anchor}
	for _, chunked := range []bool{false, true} {
		req := EncodeRequest{Bound: quant.RelBound(1e-3), Model: m, Anchors: anchors, Progressive: &ProgressiveSpec{Levels: 3}}
		if chunked {
			req.ChunkVoxels = 120
		}
		res, err := compress(target, req)
		if err != nil {
			t.Fatal(err)
		}
		blob, st := res.Blob, res.Stats
		spec, err := PayloadLevelSpecReader(bytes.NewReader(blob), int64(len(blob)))
		if err != nil {
			t.Fatal(err)
		}
		if spec.Levels != 3 {
			t.Fatalf("levels = %d, want 3", spec.Levels)
		}
		prev := math.Inf(1)
		for l := 0; l < spec.Levels; l++ {
			recon, _, _, err := decodeBlob(blob, Request{Chunk: Whole, Level: l, Anchors: anchors})
			if err != nil {
				t.Fatalf("chunked=%v level %d: %v", chunked, l, err)
			}
			measured := maxAbsDiff(target.Data(), recon.Data())
			if bound := spec.Bound(l, st.AbsEB); measured > quant.Tolerance(bound, 8) {
				t.Fatalf("chunked=%v level %d err %g > bound %g", chunked, l, measured, bound)
			}
			if measured > prev {
				t.Fatalf("chunked=%v level %d err %g worse than previous %g", chunked, l, measured, prev)
			}
			prev = measured
		}
		req.Progressive = nil
		ref0, err := compress(target, req)
		if err != nil {
			t.Fatal(err)
		}
		refBlob := ref0.Blob
		ref, err := Decompress(refBlob, anchors)
		if err != nil {
			t.Fatal(err)
		}
		full, _, _, err := decodeBlob(blob, Request{Chunk: Whole, Level: LevelFull, Anchors: anchors})
		if err != nil {
			t.Fatal(err)
		}
		for i := range ref.Data() {
			if math.Float32bits(ref.Data()[i]) != math.Float32bits(full.Data()[i]) {
				t.Fatalf("chunked=%v: full-level hybrid decode not bit-identical at %d", chunked, i)
			}
		}
	}
}

// TestProgressivePrefixReads pins the bounded-read contract: decoding level
// l through the ReaderAt path must succeed given only LayerPrefixLen(l)
// bytes of each chunk payload (plus header and index), and the results
// must match the in-memory decode.
func TestProgressivePrefixReads(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	field := synthField(rng, 8, 15, 11)
	res, err := compress(field, EncodeRequest{Bound: quant.AbsBound(1e-3), Progressive: &ProgressiveSpec{Levels: 4}, ChunkVoxels: 300})
	if err != nil {
		t.Fatal(err)
	}
	blob := res.Blob
	a, err := chunk.Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Layered {
		t.Fatal("chunked progressive container not marked layered")
	}
	for l := 0; l < 4; l++ {
		// Truncate every chunk payload to exactly the bytes level l needs;
		// the container index stays intact, and the source claims the
		// container's full size, so the reader can find chunks.
		maxEnd := 0
		for i := 0; i < a.NumChunks(); i++ {
			p, err := a.Payload(i)
			if err != nil {
				t.Fatal(err)
			}
			b, _, err := container.DecodePrefix(p)
			if err != nil {
				t.Fatal(err)
			}
			if end := a.Index[i].Offset + b.LayerPrefixLen(l); end > maxEnd {
				maxEnd = end
			}
		}
		if l < 3 && maxEnd >= len(blob) {
			t.Fatalf("level %d prefix %d not smaller than blob %d", l, maxEnd, len(blob))
		}
		trunc := blob[:maxEnd]
		got, _, ach, err := Decode(context.Background(), bytes.NewReader(trunc), int64(len(blob)), Request{Chunk: Whole, Level: l})
		if err != nil {
			t.Fatalf("level %d prefix decode: %v", l, err)
		}
		want, _, wantAch, err := decodeBlob(blob, Request{Chunk: Whole, Level: l})
		if err != nil {
			t.Fatal(err)
		}
		if ach != wantAch {
			t.Fatalf("level %d achieved %g != %g", l, ach, wantAch)
		}
		for i := range want.Data() {
			if math.Float32bits(want.Data()[i]) != math.Float32bits(got.Data()[i]) {
				t.Fatalf("level %d prefix decode differs at %d", l, i)
			}
		}
	}
}

// TestProgressiveOptionErrors pins the option-validation surface.
func TestProgressiveOptionErrors(t *testing.T) {
	field := synthField(rand.New(rand.NewSource(1)), 16, 16)
	cases := []EncodeRequest{
		{Bound: quant.AbsBound(1e-3), Progressive: &ProgressiveSpec{Levels: 1}},
		{Bound: quant.AbsBound(1e-3), Progressive: &ProgressiveSpec{Levels: 9}},
		{Bound: quant.AbsBound(1e-3), Progressive: &ProgressiveSpec{PreviewBound: 2e-3}},
		{Bound: quant.AbsBound(1e-3), Progressive: &ProgressiveSpec{Levels: 8, PreviewBound: 5e-3}},
	}
	for i, req := range cases {
		if _, err := compress(field, req); err == nil {
			t.Errorf("case %d: expected option error, got none", i)
		}
	}
	// Non-layered payloads refuse refinement levels.
	res, err := compress(field, EncodeRequest{Bound: quant.AbsBound(1e-3)})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := decodeBlob(res.Blob, Request{Chunk: Whole, Level: 1}); err == nil {
		t.Error("expected error decoding level 1 of a non-layered blob")
	}
	spec, err := PayloadLevelSpecReader(bytes.NewReader(res.Blob), int64(len(res.Blob)))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Levels != 1 || spec.Progressive() {
		t.Errorf("non-layered spec = %+v, want 1 non-progressive level", spec)
	}
}
