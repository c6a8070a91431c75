package serve_test

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	crossfield "repro"
	"repro/internal/serve"
)

// FuzzServeQuery feeds arbitrary field names, chunk indexes and eb,
// level, from and to values to the data routes of a mounted layered
// golden archive. No request may panic or answer 5xx, and every 200 body
// must equal the library decode at the level the response names (for a
// delta, the XOR of the two library decodes).
func FuzzServeQuery(f *testing.F) {
	path := filepath.Join(goldenDir, "archive_cfc3v3.cfc")
	blob, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	ar, err := crossfield.OpenArchive(blob)
	if err != nil {
		f.Fatal(err)
	}
	lib := &libraryDecoder{blob: blob, ar: ar}
	s := serve.New(serve.Config{})
	if err := s.MountFile("g", path); err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { s.Close() })
	h := s.Handler()

	f.Add(uint8(0), "W", "1", "", "0", "", "")
	f.Add(uint8(1), "U", "2", "1e-3", "", "", "")
	f.Add(uint8(2), "W", "0", "", "", "0", "")
	f.Add(uint8(3), "PRES", "1", "", "", "0", "1")
	f.Add(uint8(1), "W", "-1", "0", "9", "x", "2")
	f.Add(uint8(3), "..", "abc", "NaN", "-0", "1", "1")
	f.Fuzz(func(t *testing.T, route uint8, field, chunk, eb, level, from, to string) {
		u := "/v1/archives/g/fields/" + url.PathEscape(field)
		if route&1 != 0 {
			u += "/chunks/" + url.PathEscape(chunk)
		}
		delta := route&2 != 0
		if delta {
			u += "/delta"
		}
		q := url.Values{}
		for k, v := range map[string]string{"eb": eb, "level": level, "from": from, "to": to} {
			if v != "" {
				q.Set(k, v)
			}
		}
		if len(q) > 0 {
			u += "?" + q.Encode()
		}
		req, err := http.NewRequest(http.MethodGet, u, nil)
		if err != nil {
			return
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code >= 500 {
			t.Fatalf("GET %s = %d: %s", u, rec.Code, rec.Body.Bytes())
		}
		if rec.Code != http.StatusOK || rec.Header().Get("X-CFC-Dims") == "" {
			return // not a data response: a 4xx, a redirect, or metadata
		}
		ci := -1
		if route&1 != 0 {
			if ci, err = strconv.Atoi(chunk); err != nil {
				t.Fatalf("GET %s = 200 for malformed chunk %q", u, chunk)
			}
		}
		decode := func(level int) []byte {
			if ci < 0 {
				return lib.field(t, field, level)
			}
			return lib.chunk(t, field, ci, level)
		}
		var want []byte
		if delta {
			lo, _ := strconv.Atoi(rec.Header().Get("X-CFC-Delta-From"))
			hi, _ := strconv.Atoi(rec.Header().Get("X-CFC-Delta-To"))
			want = xorBytes(decode(hi), decode(lo))
		} else {
			want = decode(labelLevel(t, rec.Header().Get("X-CFC-Level")))
		}
		if !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("GET %s: 200 body differs from the library decode", u)
		}
	})
}
