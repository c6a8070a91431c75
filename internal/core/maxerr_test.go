package core

import (
	"math"
	"testing"

	"repro/internal/quant"
	"repro/internal/tensor"
)

// The achieved max error reported at compression time must match the real
// reconstruction error and stay within the bound.
func TestStatsMaxErrMatchesReconstruction(t *testing.T) {
	nz, ny, nx := 6, 12, 10
	data := make([]float32, nz*ny*nx)
	for i := range data {
		data[i] = float32(3*math.Sin(float64(i)/17) + 0.5*math.Cos(float64(i)/5))
	}
	f, err := tensor.FromSlice(data, nz, ny, nx)
	if err != nil {
		t.Fatal(err)
	}
	res, err := compress(f, EncodeRequest{Bound: quant.AbsBound(0.01)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.MaxErr <= 0 || res.Stats.MaxErr > res.Stats.AbsEB*(1+1e-6) {
		t.Fatalf("MaxErr = %g, want in (0, %g]", res.Stats.MaxErr, res.Stats.AbsEB)
	}
	recon, err := Decompress(res.Blob, nil)
	if err != nil {
		t.Fatal(err)
	}
	var observed float64
	for i, v := range recon.Data() {
		e := math.Abs(float64(data[i]) - float64(v))
		if e > observed {
			observed = e
		}
	}
	if math.Abs(observed-res.Stats.MaxErr) > 1e-12 {
		t.Fatalf("Stats.MaxErr = %g, observed reconstruction error = %g", res.Stats.MaxErr, observed)
	}
}

// The chunked engine records each chunk's achieved error in the index and
// aggregates the max into the field-level stats.
func TestChunkedStatsMaxErrPerChunk(t *testing.T) {
	nz, ny, nx := 8, 10, 10
	data := make([]float32, nz*ny*nx)
	for i := range data {
		data[i] = float32(math.Sin(float64(i) / 13))
	}
	f, err := tensor.FromSlice(data, nz, ny, nx)
	if err != nil {
		t.Fatal(err)
	}
	res, err := compress(f, EncodeRequest{Bound: quant.AbsBound(0.005), ChunkVoxels: 2 * ny * nx})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.MaxErr <= 0 || res.Stats.MaxErr > res.Stats.AbsEB*(1+1e-6) {
		t.Fatalf("aggregate MaxErr = %g, want in (0, %g]", res.Stats.MaxErr, res.Stats.AbsEB)
	}
}

// TestChunkedOptionsRejectNegative: Encode rejects a negative chunk size
// or worker count instead of reading it as a default.
func TestChunkedOptionsRejectNegative(t *testing.T) {
	f, err := tensor.FromSlice(make([]float32, 64), 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, req := range []EncodeRequest{
		{Bound: quant.AbsBound(0.01), ChunkVoxels: -1},
		{Bound: quant.AbsBound(0.01), Workers: -2},
	} {
		if _, err := compress(f, req); err == nil {
			t.Fatalf("negative option %+v accepted", req)
		}
	}
}
