package serve_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	crossfield "repro"
	"repro/internal/archive"
	"repro/internal/serve"
)

// goldenDir holds the committed fixtures that pin every container
// version: bare CFC1 v1–v3 and CFC2 v1–v4 blobs and the CFC3 archives.
const goldenDir = "../../testdata/golden"

// oracleFixtures lists every golden container the route oracle mounts,
// with the .f32 fixtures that pin some of its decodes, keyed
// "field/level" ("full" for full fidelity). A bare blob mounts as one
// field named like the mount, "W" here.
var oracleFixtures = []struct {
	file string
	f32  map[string]string
}{
	{"baseline_cfc1.cfc", map[string]string{"W/full": "baseline_cfc1.f32"}},
	{"baseline_cfc1v2.cfc", map[string]string{"W/full": "baseline_cfc1.f32"}},
	{"baseline_cfc1v3.cfc", map[string]string{"W/full": "baseline_cfc1.f32",
		"W/0": "baseline_cfc1v3_level0.f32", "W/1": "baseline_cfc1v3_level1.f32"}},
	{"chunked_cfc2v1.cfc", map[string]string{"W/full": "chunked_cfc2.f32"}},
	{"chunked_cfc2v2.cfc", map[string]string{"W/full": "chunked_cfc2.f32"}},
	{"chunked_cfc2v3.cfc", map[string]string{"W/full": "chunked_cfc2.f32"}},
	{"chunked_cfc2v4.cfc", map[string]string{"W/full": "chunked_cfc2.f32",
		"W/0": "chunked_cfc2v4_level0.f32", "W/1": "chunked_cfc2v4_level1.f32"}},
	{"archive_cfc3.cfc", map[string]string{
		"U/full": "archive_cfc3_U.f32", "V/full": "archive_cfc3_V.f32",
		"PRES/full": "archive_cfc3_PRES.f32", "W/full": "archive_cfc3_W.f32"}},
	{"archive_cfc3v3.cfc", map[string]string{
		"U/full": "archive_cfc3_U.f32", "V/full": "archive_cfc3_V.f32",
		"PRES/full": "archive_cfc3_PRES.f32", "W/full": "archive_cfc3_W.f32",
		"W/0": "archive_cfc3v3_W_level0.f32", "W/1": "archive_cfc3v3_W_level1.f32"}},
	{"archive_cfc3_blocks.cfc", map[string]string{
		"U/full": "archive_cfc3_U.f32", "V/full": "archive_cfc3_V.f32",
		"PRES/full": "archive_cfc3_PRES.f32", "W/full": "archive_cfc3_W.f32"}},
	{"archive2d_cfc3.cfc", map[string]string{
		"CLDLOW/full": "archive2d_cfc3_CLDLOW.f32", "CLDMED/full": "archive2d_cfc3_CLDMED.f32",
		"CLDHGH/full": "archive2d_cfc3_CLDHGH.f32", "CLDTOT/full": "archive2d_cfc3_CLDTOT.f32"}},
}

// libraryDecoder decodes a mounted container's fields and chunks through
// the library, the reference every HTTP body must match.
type libraryDecoder struct {
	blob []byte
	ar   *crossfield.Archive // nil for a bare blob
}

func (d *libraryDecoder) field(t *testing.T, name string, level int) []byte {
	t.Helper()
	var (
		f   *crossfield.Field
		err error
	)
	if d.ar != nil {
		f, _, err = d.ar.DecodeFieldAtLevel(name, level)
	} else {
		f, _, _, err = crossfield.Decode(context.Background(), name, d.blob, crossfield.DecodeRequest{Chunk: crossfield.Whole, Level: level})
	}
	if err != nil {
		t.Fatalf("library decode %s level %d: %v", name, level, err)
	}
	return floatsToBytes(f.Data())
}

func (d *libraryDecoder) chunk(t *testing.T, name string, ci, level int) []byte {
	t.Helper()
	payload, anchors := d.blob, []*crossfield.Field(nil)
	if d.ar != nil {
		var err error
		if payload, err = d.ar.FieldPayload(name); err != nil {
			t.Fatal(err)
		}
		fi, _ := d.ar.FieldInfoFor(name)
		for _, a := range fi.Anchors {
			af, err := d.ar.Field(a)
			if err != nil {
				t.Fatal(err)
			}
			anchors = append(anchors, af)
		}
	}
	f, _, _, err := crossfield.Decode(context.Background(), name, payload, crossfield.DecodeRequest{Chunk: ci, Level: level, Anchors: anchors})
	if err != nil {
		t.Fatalf("library decode %s chunk %d level %d: %v", name, ci, level, err)
	}
	return floatsToBytes(f.Data())
}

func floatsToBytes(data []float32) []byte {
	out := make([]byte, 0, 4*len(data))
	for _, v := range data {
		out = binary.LittleEndian.AppendUint32(out, math.Float32bits(v))
	}
	return out
}

func xorBytes(a, b []byte) []byte {
	out := make([]byte, len(a))
	for i := range a {
		out[i] = a[i] ^ b[i]
	}
	return out
}

// levelLabel is the X-CFC-Level value of a level, and levelQuery its
// query string.
func levelLabel(level int) string {
	if level == crossfield.LevelFull {
		return "full"
	}
	return strconv.Itoa(level)
}

func levelQuery(level int) string {
	if level == crossfield.LevelFull {
		return ""
	}
	return "?level=" + strconv.Itoa(level)
}

func labelLevel(t *testing.T, label string) int {
	t.Helper()
	if label == "full" {
		return crossfield.LevelFull
	}
	l, err := strconv.Atoi(label)
	if err != nil {
		t.Fatalf("X-CFC-Level %q", label)
	}
	return l
}

// TestRouteOracle is the HTTP route oracle: every golden fixture is
// mounted with Mount and with MountFile, under retaining and
// non-retaining caches, and every field, chunk, level and preview delta
// is fetched. Every body must equal the library decode at the level the
// response names (and its .f32 fixture where one pins it), a whole-field
// body must equal its chunk bodies concatenated in order, and a delta
// must be the XOR of the two library decodes. Without retention every
// request is served at exactly the level it asked for.
func TestRouteOracle(t *testing.T) {
	for _, fx := range oracleFixtures {
		path := filepath.Join(goldenDir, fx.file)
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("golden fixture: %v", err)
		}
		lib := &libraryDecoder{blob: blob}
		if crossfield.IsArchive(blob) {
			if lib.ar, err = crossfield.OpenArchive(blob); err != nil {
				t.Fatal(err)
			}
		}
		for _, mountFile := range []bool{false, true} {
			for _, strict := range []bool{false, true} {
				name := fmt.Sprintf("%s/file=%v/strict=%v", fx.file, mountFile, strict)
				t.Run(name, func(t *testing.T) {
					cfg := serve.Config{}
					if strict {
						cfg = serve.Config{FieldCacheBytes: -1, ChunkCacheBytes: -1}
					}
					s := serve.New(cfg)
					if mountFile {
						err = s.MountFile("W", path)
					} else {
						err = s.Mount("W", blob)
					}
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(func() { s.Close() })
					ts := httptest.NewServer(s.Handler())
					t.Cleanup(ts.Close)
					walkRoutes(t, ts, lib, fx.f32, strict)
				})
			}
		}
	}
}

// walkRoutes fetches every data route of the mount "W" and checks each
// body against the library.
func walkRoutes(t *testing.T, ts *httptest.Server, lib *libraryDecoder, f32 map[string]string, strict bool) {
	var fields []struct {
		Name   string `json:"name"`
		Levels int    `json:"levels"`
		Chunks int    `json:"chunks"`
	}
	getJSON(t, ts, "/v1/archives/W/fields", &fields)
	for _, f := range fields {
		base := "/v1/archives/W/fields/" + f.Name
		var levels []int // previews first, then full
		for l := 0; l < f.Levels-1; l++ {
			levels = append(levels, l)
		}
		levels = append(levels, crossfield.LevelFull)
		for _, level := range levels {
			served := fetchChecked(t, ts, base+levelQuery(level), level, strict)
			body := served.body
			if want := lib.field(t, f.Name, served.level); !bytes.Equal(body, want) {
				t.Fatalf("GET %s%s (served %s): body differs from the library decode", base, levelQuery(level), levelLabel(served.level))
			}
			if fx, ok := f32[f.Name+"/"+levelLabel(served.level)]; ok {
				want, err := os.ReadFile(filepath.Join(goldenDir, fx))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(body, want) {
					t.Fatalf("GET %s%s: body differs from %s", base, levelQuery(level), fx)
				}
			}
			var joined []byte
			sameLevel := true
			for ci := 0; ci < f.Chunks; ci++ {
				path := base + "/chunks/" + strconv.Itoa(ci) + levelQuery(level)
				cs := fetchChecked(t, ts, path, level, strict)
				if want := lib.chunk(t, f.Name, ci, cs.level); !bytes.Equal(cs.body, want) {
					t.Fatalf("GET %s (served %s): body differs from the library chunk decode", path, levelLabel(cs.level))
				}
				sameLevel = sameLevel && cs.level == served.level
				joined = append(joined, cs.body...)
			}
			if sameLevel && !bytes.Equal(joined, body) {
				t.Fatalf("GET %s%s: whole-field body differs from its %d chunk bodies concatenated", base, levelQuery(level), f.Chunks)
			}
		}
		// Every preview upgrades to full by one XOR delta, per field and
		// per chunk.
		for l := 0; l < f.Levels-1; l++ {
			q := "/delta?from=" + strconv.Itoa(l)
			want := xorBytes(lib.field(t, f.Name, crossfield.LevelFull), lib.field(t, f.Name, l))
			checkDelta(t, ts, base+q, want, l, f.Levels-1)
			for ci := 0; ci < f.Chunks; ci++ {
				want := xorBytes(lib.chunk(t, f.Name, ci, crossfield.LevelFull), lib.chunk(t, f.Name, ci, l))
				checkDelta(t, ts, base+"/chunks/"+strconv.Itoa(ci)+q, want, l, f.Levels-1)
			}
		}
	}
}

type servedBody struct {
	body  []byte
	level int
}

// fetchChecked GETs a data route, requiring 200 and, when strict, the
// requested level in X-CFC-Level.
func fetchChecked(t *testing.T, ts *httptest.Server, path string, level int, strict bool) servedBody {
	t.Helper()
	resp, body := get(t, ts, path)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d: %s", path, resp.StatusCode, body)
	}
	label := resp.Header.Get("X-CFC-Level")
	if strict && label != levelLabel(level) {
		t.Fatalf("GET %s served level %q without retention, want %q", path, label, levelLabel(level))
	}
	return servedBody{body: body, level: labelLevel(t, label)}
}

func checkDelta(t *testing.T, ts *httptest.Server, path string, want []byte, from, to int) {
	t.Helper()
	resp, body := get(t, ts, path)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d: %s", path, resp.StatusCode, body)
	}
	if f, d := resp.Header.Get("X-CFC-Delta-From"), resp.Header.Get("X-CFC-Delta-To"); f != strconv.Itoa(from) || d != strconv.Itoa(to) {
		t.Fatalf("GET %s: delta headers from=%q to=%q, want %d/%d", path, f, d, from, to)
	}
	if !bytes.Equal(body, want) {
		t.Fatalf("GET %s: delta differs from the XOR of the library decodes", path)
	}
}

// TestRegionDimsCheckedAgainstManifest: an archive whose manifest dims
// disagree with its payload's, at the same voxel count, must fail on
// both routes. The whole field and every chunk are checked against the
// manifest dims with axis 0 cut to the region, so neither route serves
// bytes the manifest mislabels.
func TestRegionDimsCheckedAgainstManifest(t *testing.T) {
	payload, err := os.ReadFile(filepath.Join(goldenDir, "chunked_cfc2v2.cfc")) // 6x10x12, 3 chunks
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	aw := archive.NewWriter(&buf)
	e := archive.Entry{Name: "W", Dims: []int{12, 5, 12}, AbsEB: 0.05, MaxErr: math.NaN()}
	if err := aw.Append(&e, func(w io.Writer) error { _, err := w.Write(payload); return err }); err != nil {
		t.Fatal(err)
	}
	if _, err := aw.Close(); err != nil {
		t.Fatal(err)
	}
	s := serve.New(serve.Config{})
	if err := s.Mount("bad", buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	for _, path := range []string{"/v1/archives/bad/fields/W", "/v1/archives/bad/fields/W/chunks/0", "/v1/archives/bad/fields/W/chunks/2"} {
		if resp, body := get(t, ts, path); resp.StatusCode != http.StatusInternalServerError {
			t.Errorf("GET %s = %d (%.80q), want 500 for payload dims that disagree with the manifest", path, resp.StatusCode, body)
		}
	}
}
