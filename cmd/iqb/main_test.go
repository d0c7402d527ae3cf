package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"iqb/internal/dataset"
	"iqb/internal/iqb"
)

// capture runs run() with stdout redirected to a temp file and returns
// the output.
func capture(t *testing.T, args ...string) (string, error) {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	runErr := run(args, f)
	if _, err := f.Seek(0, 0); err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out), runErr
}

// writeTestData writes a small NDJSON dataset file.
func writeTestData(t *testing.T) string {
	t.Helper()
	ts := time.Date(2025, 6, 1, 12, 0, 0, 0, time.UTC)
	var records []dataset.Record
	for i := 0; i < 15; i++ {
		for _, ds := range []string{"ndt", "cloudflare", "ookla"} {
			r := dataset.NewRecord(string(rune('a'+i)), ds, "XA-01-001", ts)
			r.SetValue(dataset.Download, 200)
			r.SetValue(dataset.Upload, 50)
			r.SetValue(dataset.Latency, 18)
			if ds != "ookla" {
				r.SetValue(dataset.Loss, 0.001)
			}
			records = append(records, r)
		}
	}
	path := filepath.Join(t.TempDir(), "tests.ndjson")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := dataset.WriteNDJSON(f, records); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestNoArgs(t *testing.T) {
	if _, err := capture(t); err == nil {
		t.Error("no arguments should error with usage")
	}
	if _, err := capture(t, "fly"); err == nil {
		t.Error("unknown subcommand should error")
	}
}

func TestTable1Subcommand(t *testing.T) {
	out, err := capture(t, "table1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Video Conferencing") {
		t.Errorf("table1 output:\n%s", out)
	}
}

func TestFigSubcommands(t *testing.T) {
	out, err := capture(t, "fig1")
	if err != nil || !strings.Contains(out, "TIER 1") {
		t.Errorf("fig1: %v\n%s", err, out)
	}
	out, err = capture(t, "fig2")
	if err != nil || !strings.Contains(out, "Gaming") {
		t.Errorf("fig2: %v\n%s", err, out)
	}
}

func TestConfigSubcommand(t *testing.T) {
	out, err := capture(t, "config")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "requirement_weights") {
		t.Errorf("config output:\n%s", out[:200])
	}
}

func TestValidateSubcommand(t *testing.T) {
	// Round trip: dump default config, validate it.
	cfgPath := filepath.Join(t.TempDir(), "cfg.json")
	f, err := os.Create(cfgPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := iqb.DefaultConfig().WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	out, err := capture(t, "validate", "-config", cfgPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "valid") {
		t.Errorf("validate output: %q", out)
	}
	// Missing flag and missing file both error.
	if _, err := capture(t, "validate"); err == nil {
		t.Error("missing -config should error")
	}
	if _, err := capture(t, "validate", "-config", "/nonexistent.json"); err == nil {
		t.Error("missing file should error")
	}
	// Corrupt file.
	bad := filepath.Join(t.TempDir(), "bad.json")
	os.WriteFile(bad, []byte("{"), 0o644)
	if _, err := capture(t, "validate", "-config", bad); err == nil {
		t.Error("corrupt config should error")
	}
}

func TestScoreSubcommand(t *testing.T) {
	data := writeTestData(t)
	out, err := capture(t, "score", "-data", data, "-region", "XA-01-001")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "IQB score for XA-01-001") {
		t.Errorf("score output:\n%s", out)
	}
	// All bars pass: grade A.
	if !strings.Contains(out, "grade A") {
		t.Errorf("expected grade A:\n%s", out)
	}
}

func TestScoreSubcommandJSON(t *testing.T) {
	data := writeTestData(t)
	out, err := capture(t, "score", "-data", data, "-json")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, `"iqb"`) || !strings.Contains(out, `"use_cases"`) {
		t.Errorf("JSON output:\n%s", out[:min(300, len(out))])
	}
}

func TestScoreSubcommandQuality(t *testing.T) {
	data := writeTestData(t)
	if _, err := capture(t, "score", "-data", data, "-quality", "minimum"); err != nil {
		t.Fatal(err)
	}
	if _, err := capture(t, "score", "-data", data, "-quality", "luxurious"); err == nil {
		t.Error("unknown quality should error")
	}
}

func TestScoreSubcommandErrors(t *testing.T) {
	if _, err := capture(t, "score"); err == nil {
		t.Error("missing -data should error")
	}
	if _, err := capture(t, "score", "-data", "/nonexistent.ndjson"); err == nil {
		t.Error("missing data file should error")
	}
	// Corrupt data file.
	bad := filepath.Join(t.TempDir(), "bad.ndjson")
	os.WriteFile(bad, []byte("{oops\n"), 0o644)
	if _, err := capture(t, "score", "-data", bad); err == nil {
		t.Error("corrupt data should error")
	}
}

func TestScoreCSVInput(t *testing.T) {
	ts := time.Date(2025, 6, 1, 12, 0, 0, 0, time.UTC)
	var records []dataset.Record
	for i := 0; i < 12; i++ {
		r := dataset.NewRecord(string(rune('a'+i)), "ndt", "XB-01", ts)
		r.SetValue(dataset.Download, 100)
		r.SetValue(dataset.Upload, 20)
		r.SetValue(dataset.Latency, 25)
		r.SetValue(dataset.Loss, 0.002)
		records = append(records, r)
	}
	path := filepath.Join(t.TempDir(), "tests.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := dataset.WriteCSV(f, records); err != nil {
		t.Fatal(err)
	}
	f.Close()
	out, err := capture(t, "score", "-data", path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "XB-01") {
		t.Errorf("CSV-driven score output:\n%s", out)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestExportCSV(t *testing.T) {
	data := writeTestData(t)
	out, err := capture(t, "export", "-data", data, "-format", "csv")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "region,iqb,grade") || !strings.Contains(out, "XA-01-001") {
		t.Errorf("export csv:\n%s", out)
	}
}

func TestExportMarkdown(t *testing.T) {
	data := writeTestData(t)
	out, err := capture(t, "export", "-data", data, "-format", "markdown", "-region", "XA-01-001")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "# IQB score: XA-01-001") {
		t.Errorf("export markdown:\n%s", out[:min(200, len(out))])
	}
	if _, err := capture(t, "export", "-data", data, "-format", "markdown"); err == nil {
		t.Error("markdown without region should error")
	}
}

func TestExportPreset(t *testing.T) {
	data := writeTestData(t)
	if _, err := capture(t, "export", "-data", data, "-preset", "baseline"); err != nil {
		t.Fatal(err)
	}
	if _, err := capture(t, "export", "-data", data, "-preset", "vibes"); err == nil {
		t.Error("unknown preset should error")
	}
}

func TestExportErrors(t *testing.T) {
	data := writeTestData(t)
	if _, err := capture(t, "export", "-data", data, "-format", "pdf"); err == nil {
		t.Error("unknown format should error")
	}
	if _, err := capture(t, "export"); err == nil {
		t.Error("missing data should error")
	}
}

func TestTimeSeriesSubcommand(t *testing.T) {
	data := writeTestData(t)
	out, err := capture(t, "timeseries", "-data", data, "-region", "XA-01-001")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "from,to,iqb,grade,no_data") {
		t.Errorf("timeseries csv:\n%s", out)
	}
	if _, err := capture(t, "timeseries", "-data", data); err == nil {
		t.Error("missing region should error")
	}
	if _, err := capture(t, "timeseries", "-data", data, "-region", "XB-99"); err == nil {
		t.Error("region without records should error")
	}
}

// TestTimeSeriesWindowCap: one record an hour after the rest makes a
// 1ms-window series 3.6e6 points long, past iqb.MaxWindows, so the
// subcommand refuses it; hourly windows still work.
func TestTimeSeriesWindowCap(t *testing.T) {
	late := dataset.NewRecord("late", "ndt", "XA-01-001", time.Date(2025, 6, 1, 13, 0, 0, 0, time.UTC))
	late.SetValue(dataset.Download, 200)
	path := filepath.Join(t.TempDir(), "late.ndjson")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := dataset.WriteNDJSON(f, []dataset.Record{late}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	data := writeTestData(t) + "," + path
	if _, err := capture(t, "timeseries", "-data", data, "-region", "XA-01-001", "-window", "1ms"); err == nil || !strings.Contains(err.Error(), "too many windows") {
		t.Errorf("window=1ms: err = %v, want the window limit", err)
	}
	out, err := capture(t, "timeseries", "-data", data, "-region", "XA-01-001", "-window", "1h")
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(strings.TrimSpace(out), "\n"); lines != 2 {
		t.Errorf("window=1h: %d points, want 2:\n%s", lines, out)
	}
}
