package httpapi

import (
	"context"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"iqb/internal/dataset"
	"iqb/internal/geo"
	"iqb/internal/iqb"
)

// buildWorld assembles a small scored world: two counties, three
// datasets, the urban one healthy and the rural one poor.
func buildWorld(t *testing.T) (*dataset.Store, *geo.DB) {
	t.Helper()
	db := geo.NewDB()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(db.AddRegion(geo.Region{Code: "XA", Name: "Examplia", Level: geo.Country}))
	must(db.AddRegion(geo.Region{Code: "XA-01", Level: geo.State, Parent: "XA"}))
	must(db.AddRegion(geo.Region{Code: "XA-01-001", Level: geo.County, Parent: "XA-01", Character: geo.Urban, Population: 50000}))
	must(db.AddRegion(geo.Region{Code: "XA-01-002", Level: geo.County, Parent: "XA-01", Character: geo.Rural, Population: 8000}))

	store := dataset.NewStore()
	ts := time.Date(2025, 6, 1, 12, 0, 0, 0, time.UTC)
	add := func(id, ds, region string, down, up, lat, loss float64) {
		t.Helper()
		rec := dataset.NewRecord(id, ds, region, ts)
		rec.SetValue(dataset.Download, down)
		rec.SetValue(dataset.Upload, up)
		rec.SetValue(dataset.Latency, lat)
		if ds != "ookla" {
			rec.SetValue(dataset.Loss, loss)
		}
		must(store.Add(rec))
	}
	for i := 0; i < 15; i++ {
		suffix := string(rune('a' + i))
		add("u"+suffix, "ndt", "XA-01-001", 300, 80, 12, 0.001)
		add("u"+suffix, "cloudflare", "XA-01-001", 250, 70, 14, 0.002)
		add("u"+suffix, "ookla", "XA-01-001", 320, 90, 11, 0)
		add("r"+suffix, "ndt", "XA-01-002", 6, 0.8, 90, 0.02)
		add("r"+suffix, "cloudflare", "XA-01-002", 5, 0.7, 95, 0.03)
		add("r"+suffix, "ookla", "XA-01-002", 7, 1, 85, 0)
	}
	return store, db
}

func newAPIServer(t *testing.T) *httptest.Server {
	t.Helper()
	store, db := buildWorld(t)
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	srv, err := New(iqb.DefaultConfig(), store, db, logger)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts
}

func TestNewValidates(t *testing.T) {
	store, db := buildWorld(t)
	bad := iqb.DefaultConfig()
	bad.Percentile = 0
	if _, err := New(bad, store, db, nil); err == nil {
		t.Error("invalid config should error")
	}
	if _, err := New(iqb.DefaultConfig(), nil, db, nil); err == nil {
		t.Error("nil store should error")
	}
	if _, err := New(iqb.DefaultConfig(), store, nil, nil); err == nil {
		t.Error("nil geography should error")
	}
}

func TestHealth(t *testing.T) {
	ts := newAPIServer(t)
	c := &Client{BaseURL: ts.URL}
	h, err := c.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Records != 90 {
		t.Errorf("health = %+v", h)
	}
}

func TestRegions(t *testing.T) {
	ts := newAPIServer(t)
	c := &Client{BaseURL: ts.URL}
	regions, err := c.Regions(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(regions) != 4 {
		t.Fatalf("regions = %d", len(regions))
	}
	byCode := map[string]RegionInfo{}
	for _, r := range regions {
		byCode[r.Code] = r
	}
	if byCode["XA-01-001"].Character != "urban" || byCode["XA-01-001"].Parent != "XA-01" {
		t.Errorf("region info = %+v", byCode["XA-01-001"])
	}
}

func TestScore(t *testing.T) {
	ts := newAPIServer(t)
	c := &Client{BaseURL: ts.URL}
	urban, err := c.Score(context.Background(), "XA-01-001")
	if err != nil {
		t.Fatal(err)
	}
	rural, err := c.Score(context.Background(), "XA-01-002")
	if err != nil {
		t.Fatal(err)
	}
	if urban.Score.IQB <= rural.Score.IQB {
		t.Errorf("urban %v should outscore rural %v", urban.Score.IQB, rural.Score.IQB)
	}
	if len(urban.Score.UseCases) != 6 {
		t.Errorf("use case breakdown size = %d", len(urban.Score.UseCases))
	}
	// Subtree scoring at the state level works too.
	state, err := c.Score(context.Background(), "XA-01")
	if err != nil {
		t.Fatal(err)
	}
	if state.Score.IQB < 0 || state.Score.IQB > 1 {
		t.Errorf("state score = %v", state.Score.IQB)
	}
}

func TestScoreErrors(t *testing.T) {
	ts := newAPIServer(t)
	c := &Client{BaseURL: ts.URL}
	if _, err := c.Score(context.Background(), "XB-99"); err == nil {
		t.Error("unknown region should error")
	} else if !strings.Contains(err.Error(), "404") && !strings.Contains(err.Error(), "unknown region") {
		t.Errorf("error should carry the API message: %v", err)
	}
	// Missing region parameter.
	resp, err := http.Get(ts.URL + "/v1/score")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing region status = %d", resp.StatusCode)
	}
}

func TestRanking(t *testing.T) {
	ts := newAPIServer(t)
	c := &Client{BaseURL: ts.URL}
	resp, err := c.Ranking(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if resp.Omitted != 0 {
		t.Errorf("omitted = %d, want 0", resp.Omitted)
	}
	rows := resp.Rows
	if len(rows) != 2 {
		t.Fatalf("ranking rows = %d", len(rows))
	}
	if rows[0].Region != "XA-01-001" || rows[0].Rank != 1 {
		t.Errorf("first row = %+v", rows[0])
	}
	if rows[1].IQB > rows[0].IQB {
		t.Error("ranking not descending")
	}
	if rows[0].Grade == "" || rows[0].Character != "urban" {
		t.Errorf("row metadata = %+v", rows[0])
	}
}

func TestDatasets(t *testing.T) {
	ts := newAPIServer(t)
	c := &Client{BaseURL: ts.URL}
	ds, err := c.Datasets(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 3 {
		t.Fatalf("datasets = %+v", ds)
	}
	for _, d := range ds {
		if d.Records != 30 {
			t.Errorf("%s records = %d, want 30", d.Name, d.Records)
		}
	}
}

// TestEmptyListsEncodeAsArrays pins the JSON shape of the list
// endpoints: with no regions and no records they must encode [] — never
// null, which breaks clients that iterate the response.
func TestEmptyListsEncodeAsArrays(t *testing.T) {
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	srv, err := New(iqb.DefaultConfig(), dataset.NewStore(), geo.NewDB(), logger)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	want := map[string]string{
		"/v1/regions":  "[]",
		"/v1/datasets": "[]",
		// The ranking envelope's rows must encode [] — never null.
		"/v1/ranking": `{"rows":[],"omitted":0}`,
	}
	for path, wantBody := range want {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s status = %d", path, resp.StatusCode)
		}
		if got := strings.TrimSpace(string(body)); got != wantBody {
			t.Errorf("%s body = %q, want %q", path, got, wantBody)
		}
	}
}

func TestConfigEndpoint(t *testing.T) {
	ts := newAPIServer(t)
	resp, err := http.Get(ts.URL + "/v1/config")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "requirement_weights") {
		t.Errorf("config body missing weights: %s", body[:min(200, len(body))])
	}
}

func TestUnknownEndpoint(t *testing.T) {
	ts := newAPIServer(t)
	resp, err := http.Get(ts.URL + "/v1/nope")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("status = %d", resp.StatusCode)
	}
}

func TestClientDeadServer(t *testing.T) {
	c := &Client{BaseURL: "http://127.0.0.1:1"}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if _, err := c.Health(ctx); err == nil {
		t.Error("dead server should error")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestTimeSeriesEndpoint(t *testing.T) {
	ts := newAPIServer(t)
	c := &Client{BaseURL: ts.URL}
	resp, err := c.TimeSeries(context.Background(), "XA-01-001", 0)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Region != "XA-01-001" || len(resp.Points) == 0 {
		t.Fatalf("timeseries = %+v", resp)
	}
	// All records share one timestamp, so the default 24h window yields
	// exactly one point with a real score.
	if len(resp.Points) != 1 || resp.Points[0].NoData {
		t.Errorf("points = %+v", resp.Points)
	}
	if resp.Points[0].Score.IQB <= 0 {
		t.Error("urban county should have a positive score")
	}
	// Custom window string round-trips.
	resp, err = c.TimeSeries(context.Background(), "XA-01-001", 6*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Window != "6h0m0s" {
		t.Errorf("window = %q", resp.Window)
	}
}

func TestTimeSeriesErrors(t *testing.T) {
	ts := newAPIServer(t)
	c := &Client{BaseURL: ts.URL}
	if _, err := c.TimeSeries(context.Background(), "XB-99", 0); err == nil {
		t.Error("unknown region should error")
	}
	for _, path := range []string{"/v1/timeseries", "/v1/timeseries?region=XA-01-001&window=banana"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s status = %d, want 400", path, resp.StatusCode)
		}
	}
}

// TestTimeSeriesWindowCap: a window so narrow that the series would
// exceed iqb.MaxWindows points is refused with 400 before any scoring,
// while the default daily window over the same week still answers.
func TestTimeSeriesWindowCap(t *testing.T) {
	store, db := buildWorld(t)
	// Stretch the urban county's records over six days, so daily windows
	// give seven points and millisecond windows ~5e8.
	late := time.Date(2025, 6, 7, 12, 0, 0, 0, time.UTC)
	for _, ds := range []string{"ndt", "cloudflare", "ookla"} {
		rec := dataset.NewRecord("late", ds, "XA-01-001", late)
		rec.SetValue(dataset.Download, 300)
		rec.SetValue(dataset.Upload, 80)
		rec.SetValue(dataset.Latency, 12)
		if err := store.Add(rec); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := New(iqb.DefaultConfig(), store, db, slog.New(slog.NewTextHandler(io.Discard, nil)))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	resp, err := http.Get(ts.URL + "/v1/timeseries?region=XA-01-001&window=1ms")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "too many windows") {
		t.Errorf("window=1ms: status %d body %s, want 400 naming the window limit", resp.StatusCode, body)
	}

	c := &Client{BaseURL: ts.URL}
	series, err := c.TimeSeries(context.Background(), "XA-01-001", 24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if len(series.Points) != 7 {
		t.Errorf("window=24h: %d points, want 7", len(series.Points))
	}
}

func TestHourlyEndpoint(t *testing.T) {
	ts := newAPIServer(t)
	c := &Client{BaseURL: ts.URL}
	resp, err := c.Hourly(context.Background(), "XA-01-001", 6)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Band != 6 || len(resp.Buckets) != 4 {
		t.Fatalf("hourly = %+v", resp)
	}
	// The test data sits at 12:00 UTC: bucket 2 (12-18) has the data.
	if resp.Buckets[2].NoData || resp.Buckets[2].Records == 0 {
		t.Errorf("noon bucket = %+v", resp.Buckets[2])
	}
	if !resp.Buckets[0].NoData {
		t.Errorf("midnight bucket should be empty: %+v", resp.Buckets[0])
	}
}

func TestHourlyErrors(t *testing.T) {
	ts := newAPIServer(t)
	c := &Client{BaseURL: ts.URL}
	if _, err := c.Hourly(context.Background(), "XB-99", 3); err == nil {
		t.Error("unknown region should error")
	}
	if _, err := c.Hourly(context.Background(), "XA-01-001", 5); err == nil {
		t.Error("band not dividing 24 should error")
	}
	resp, err := http.Get(ts.URL + "/v1/hourly?region=XA-01-001&band=x")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad band status = %d", resp.StatusCode)
	}
}
