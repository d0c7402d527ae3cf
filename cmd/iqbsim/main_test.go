package main

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"iqb/internal/httpapi"
	"iqb/internal/iqb"
	"iqb/internal/pipeline"
)

func TestParseMix(t *testing.T) {
	mix, err := parseMix("ingest=70,score=20,ranking=10")
	if err != nil {
		t.Fatal(err)
	}
	if mix["ingest"] != 70 || mix["score"] != 20 || mix["ranking"] != 10 {
		t.Fatalf("mix = %v", mix)
	}
	if mix, err := parseMix("ingest=100"); err != nil || mix["score"] != 0 {
		t.Fatalf("single-op mix: %v, %v", mix, err)
	}
	for _, bad := range []string{"", "bogus=1", "ingest", "ingest=-1", "ingest=0,score=0,ranking=0"} {
		if _, err := parseMix(bad); err == nil {
			t.Fatalf("parseMix(%q) accepted", bad)
		}
	}
}

func TestMixWeightsStableOrder(t *testing.T) {
	ops, weights := mixWeights(map[string]int{"ranking": 1, "ingest": 2, "score": 3})
	if len(ops) != 3 || ops[0] != "ingest" || ops[1] != "score" || ops[2] != "ranking" {
		t.Fatalf("ops = %v, want fixed ingest,score,ranking order", ops)
	}
	if weights[0] != 2 || weights[1] != 3 || weights[2] != 1 {
		t.Fatalf("weights = %v", weights)
	}
}

// startTestServer boots a real API server (in-process, memory-only)
// through httpapi.Open, as iqbserver does.
func startTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	spec := pipeline.DefaultSpec()
	spec.Geo.States = 2
	spec.Geo.CountiesPer = 2
	spec.TestsPerCounty = 10
	spec.Days = 2
	spec.OoklaMinGroup = 2
	res, err := pipeline.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	api, err := httpapi.Open(httpapi.Config{
		Scoring: iqb.DefaultConfig(),
		Store:   res.Store,
		Geo:     res.World.DB,
		Logger:  slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := api.Close(); err != nil {
			t.Errorf("closing server: %v", err)
		}
	})
	srv := httptest.NewServer(api)
	t.Cleanup(srv.Close)
	return srv
}

// TestRunLoadMixedTraffic drives the load generator against a live
// in-process server and checks the report: every op in the mix ran,
// ingested records were committed, and latency summaries exist.
func TestRunLoadMixedTraffic(t *testing.T) {
	srv := startTestServer(t)
	rep, err := runLoad(context.Background(), loadConfig{
		baseURL:  srv.URL,
		clients:  3,
		duration: 400 * time.Millisecond,
		mix:      map[string]int{"ingest": 60, "score": 25, "ranking": 15},
		batch:    5,
		seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests == 0 {
		t.Fatal("load run issued no requests")
	}
	ingestRep, ok := rep.Ops["ingest"]
	if !ok {
		t.Fatalf("report has no ingest op: %+v", rep.Ops)
	}
	if ingestRep.AcceptedRecords == 0 {
		t.Fatalf("no records accepted: %+v", ingestRep)
	}
	if ingestRep.Errors != 0 {
		t.Fatalf("ingest saw %d hard errors", ingestRep.Errors)
	}
	if ingestRep.LatencyMS == nil || ingestRep.LatencyMS.P50 <= 0 {
		t.Fatalf("ingest latency summary missing: %+v", ingestRep.LatencyMS)
	}
	for _, name := range []string{"score", "ranking"} {
		op, ok := rep.Ops[name]
		if !ok {
			// A very short run can roll no requests for a low-weight
			// op; tolerate absence but not failure.
			continue
		}
		if op.Errors != 0 {
			t.Fatalf("%s saw %d errors", name, op.Errors)
		}
	}
	if rep.AchievedRPS <= 0 {
		t.Fatalf("achieved rps = %v", rep.AchievedRPS)
	}
}

// TestRunLoadPacedSingleOp pins the -rps pacing path and a single-op
// mix: a paced run must not exceed its target by an order of
// magnitude (closed-loop pacing is approximate, not a hard limiter).
func TestRunLoadPacedSingleOp(t *testing.T) {
	srv := startTestServer(t)
	rep, err := runLoad(context.Background(), loadConfig{
		baseURL:  srv.URL,
		clients:  2,
		rps:      20,
		duration: 500 * time.Millisecond,
		mix:      map[string]int{"ranking": 1},
		batch:    1,
		seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rep.Ops["ingest"]; ok {
		t.Fatal("single-op mix still issued ingest requests")
	}
	if rep.Requests == 0 {
		t.Fatal("paced run issued no requests")
	}
	// 20 rps for 0.5s is ~10 requests; allow generous slack for timer
	// coarseness but catch a broken (unthrottled) pacing path, which
	// would do hundreds.
	if rep.Requests > 60 {
		t.Fatalf("paced run issued %d requests, pacing is not limiting", rep.Requests)
	}
}

// TestWriteReportFile pins the -out path: the file holds the same JSON
// the stdout path would print, and close errors are not swallowed.
func TestWriteReportFile(t *testing.T) {
	rep := Report{Addr: "http://x", Clients: 1, Ops: map[string]OpReport{}}
	path := filepath.Join(t.TempDir(), "report.json")
	if err := writeReport(rep, path, nil); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got Report
	if err := json.Unmarshal(blob, &got); err != nil {
		t.Fatalf("report file is not valid JSON: %v", err)
	}
	if got.Addr != "http://x" || got.Clients != 1 {
		t.Fatalf("round-tripped report = %+v", got)
	}
}
