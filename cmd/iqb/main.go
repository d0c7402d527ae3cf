// Command iqb computes Internet Quality Barometer scores from
// measurement dataset files and renders the framework's published
// artifacts.
//
// Usage:
//
//	iqb score  -data tests.ndjson[,more.csv] [-region XA-01] [-config cfg.json] [-quality high|minimum] [-json]
//	iqb table1                 # render the paper's Table 1
//	iqb fig1                   # render the framework diagram
//	iqb fig2                   # render the threshold chart
//	iqb config                 # print the default configuration JSON
//	iqb validate -config cfg.json
//	iqb export -data tests.ndjson -format csv            # all regions as CSV
//	iqb export -data tests.ndjson -format markdown -region XA-01
//	iqb timeseries -data tests.ndjson -region XA-01 -window 24h
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"iqb/internal/dataset"
	"iqb/internal/iqb"
	"iqb/internal/report"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "iqb:", err)
		os.Exit(1)
	}
}

func run(args []string, out *os.File) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: iqb <score|export|timeseries|table1|fig1|fig2|config|validate> [flags]")
	}
	switch args[0] {
	case "score":
		return cmdScore(args[1:], out)
	case "table1":
		return report.RenderTable1(out, iqb.Table1Weights())
	case "fig1":
		return report.RenderFig1(out, iqb.DefaultConfig())
	case "fig2":
		return report.RenderFig2(out, iqb.DefaultThresholds())
	case "config":
		return iqb.DefaultConfig().WriteJSON(out)
	case "validate":
		return cmdValidate(args[1:], out)
	case "export":
		return cmdExport(args[1:], out)
	case "timeseries":
		return cmdTimeSeries(args[1:], out)
	default:
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

// loadConfig reads a config file or returns the default.
func loadConfig(path string) (iqb.Config, error) {
	if path == "" {
		return iqb.DefaultConfig(), nil
	}
	f, err := os.Open(path)
	if err != nil {
		return iqb.Config{}, fmt.Errorf("opening config: %w", err)
	}
	defer f.Close()
	return iqb.ReadConfigJSON(f)
}

// loadData reads comma-separated NDJSON/CSV files into a store.
func loadData(paths string) (*dataset.Store, error) {
	if paths == "" {
		return nil, fmt.Errorf("-data is required (comma-separated .ndjson/.csv files)")
	}
	store := dataset.NewStore()
	for _, path := range strings.Split(paths, ",") {
		path = strings.TrimSpace(path)
		f, err := os.Open(path)
		if err != nil {
			return nil, fmt.Errorf("opening %s: %w", path, err)
		}
		var records []dataset.Record
		switch {
		case strings.HasSuffix(path, ".csv"):
			records, err = dataset.ReadCSV(f)
		default:
			records, err = dataset.ReadNDJSON(f)
		}
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("reading %s: %w", path, err)
		}
		if err := store.AddBatch(records); err != nil {
			return nil, fmt.Errorf("loading %s: %w", path, err)
		}
	}
	return store, nil
}

func cmdScore(args []string, out *os.File) error {
	fs := flag.NewFlagSet("score", flag.ContinueOnError)
	data := fs.String("data", "", "comma-separated dataset files (.ndjson or .csv)")
	region := fs.String("region", "", "region code to score (default: each region present)")
	configPath := fs.String("config", "", "framework configuration JSON (default: built-in)")
	quality := fs.String("quality", "", "override quality bar: high or minimum")
	asJSON := fs.Bool("json", false, "emit the score breakdown as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg, err := loadConfig(*configPath)
	if err != nil {
		return err
	}
	switch *quality {
	case "":
	case "high":
		cfg.Quality = iqb.HighQuality
	case "minimum":
		cfg.Quality = iqb.MinimumQuality
	default:
		return fmt.Errorf("unknown quality %q", *quality)
	}
	store, err := loadData(*data)
	if err != nil {
		return err
	}

	regions := []string{*region}
	if *region == "" {
		regions = store.Regions()
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	for _, reg := range regions {
		score, err := cfg.ScoreRegion(store, reg, time.Time{}, time.Time{})
		if err != nil {
			return fmt.Errorf("scoring %s: %w", reg, err)
		}
		if *asJSON {
			if err := enc.Encode(struct {
				Region string    `json:"region"`
				Score  iqb.Score `json:"score"`
			}{reg, score}); err != nil {
				return err
			}
			continue
		}
		if err := report.RenderScoreCard(out, reg, score); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	return nil
}

func cmdValidate(args []string, out *os.File) error {
	fs := flag.NewFlagSet("validate", flag.ContinueOnError)
	configPath := fs.String("config", "", "framework configuration JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *configPath == "" {
		return fmt.Errorf("-config is required")
	}
	if _, err := loadConfig(*configPath); err != nil {
		return err
	}
	fmt.Fprintf(out, "%s: configuration is valid\n", *configPath)
	return nil
}
