package httpapi

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzQueryParams drives the query parsers of GET /v1/score,
// /v1/timeseries and /v1/hourly: region, the RFC 3339 from/to bounds,
// window and band, in any form, on a cached and an uncached server.
// Every answer must be a 2xx with a JSON body or a 4xx with a JSON
// error, never a 500 or a panic.
func FuzzQueryParams(f *testing.F) {
	servers := []*Server{open(f, Config{}), open(f, Config{NoScoreCache: true})}
	paths := []string{"/v1/score", "/v1/timeseries", "/v1/hourly"}
	for _, q := range []string{
		"region=XA-01-001",
		"region=XA&from=2025-06-01T00:00:00Z&to=2025-06-02T00:00:00Z",
		"region=XA-01&from=0000-01-01T00:00:00Z&to=9999-12-31T23:59:59.999999999Z",
		"region=XA&from=9999-12-31T23:59:59Z&to=0000-01-01T00:00:00Z",
		"region=XA&from=2025-06-01T12:00:00%2B14:00&to=2025-06-01T12:00:00-12:00",
		"region=XA&from=2025-06-01T12:00:00+05:30",
		"region=XA&window=1ns",
		"region=XA&window=-1h",
		"region=XA&window=2562047h47m16.854775807s",
		"region=XA&band=0",
		"region=XA&band=24",
		"region=XA&band=-3",
		"region=XA&band=99999999999999999999",
		"region=&from=&to=&window=&band=",
		"region=XA&region=XB&from=a&from=2025-06-01T00:00:00Z",
		"region=XA-0",
		"",
		"%zz&region=XA;window=1h",
	} {
		for i := range paths {
			f.Add(uint8(i), q)
		}
	}
	f.Fuzz(func(t *testing.T, path uint8, query string) {
		for _, srv := range servers {
			req := httptest.NewRequest(http.MethodGet, paths[int(path)%len(paths)], nil)
			req.URL.RawQuery = query
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, req)
			code := rec.Code
			if code/100 != 2 && code/100 != 4 {
				t.Fatalf("GET %s?%s: status %d: %s", req.URL.Path, query, code, rec.Body)
			}
			var body map[string]any
			if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
				t.Fatalf("GET %s?%s: status %d with an undecodable body %q: %v", req.URL.Path, query, code, rec.Body, err)
			}
			if _, ok := body["error"].(string); code/100 == 4 && !ok {
				t.Fatalf("GET %s?%s: status %d without a JSON error: %s", req.URL.Path, query, code, rec.Body)
			}
		}
	})
}
