package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"iqb/internal/dataset"
	"iqb/internal/iqb"
	"iqb/internal/report"
)

// cmdExport scores every region in the loaded data and writes CSV (all
// regions) or markdown (one region's full breakdown).
func cmdExport(args []string, out *os.File) error {
	fs := flag.NewFlagSet("export", flag.ContinueOnError)
	data := fs.String("data", "", "comma-separated dataset files (.ndjson or .csv)")
	configPath := fs.String("config", "", "framework configuration JSON (default: built-in)")
	format := fs.String("format", "csv", "output format: csv or markdown")
	region := fs.String("region", "", "region for markdown export (required for markdown)")
	preset := fs.String("preset", "", "named preset: paper, baseline, realtime, remote-work")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg, err := loadConfig(*configPath)
	if err != nil {
		return err
	}
	if *preset != "" {
		if *configPath != "" {
			return fmt.Errorf("-preset and -config are mutually exclusive")
		}
		cfg, err = iqb.Preset(iqb.PresetName(*preset))
		if err != nil {
			return err
		}
	}
	store, err := loadData(*data)
	if err != nil {
		return err
	}
	switch *format {
	case "csv":
		scores := map[string]iqb.Score{}
		regions := store.Regions()
		if *region != "" {
			regions = []string{*region}
		}
		for _, reg := range regions {
			s, err := cfg.ScoreRegion(store, reg, time.Time{}, time.Time{})
			if err != nil {
				return fmt.Errorf("scoring %s: %w", reg, err)
			}
			scores[reg] = s
		}
		return report.WriteScoresCSV(out, scores)
	case "markdown":
		if *region == "" {
			return fmt.Errorf("-region is required for markdown export")
		}
		s, err := cfg.ScoreRegion(store, *region, time.Time{}, time.Time{})
		if err != nil {
			return fmt.Errorf("scoring %s: %w", *region, err)
		}
		return report.WriteScoreMarkdown(out, *region, s)
	default:
		return fmt.Errorf("unknown format %q", *format)
	}
}

// cmdTimeSeries scores a region over consecutive windows and writes the
// series as CSV.
func cmdTimeSeries(args []string, out *os.File) error {
	fs := flag.NewFlagSet("timeseries", flag.ContinueOnError)
	data := fs.String("data", "", "comma-separated dataset files (.ndjson or .csv)")
	configPath := fs.String("config", "", "framework configuration JSON (default: built-in)")
	region := fs.String("region", "", "region code to score")
	window := fs.Duration("window", 24*time.Hour, fmt.Sprintf("window width; the data's time span may hold at most %d windows", iqb.MaxWindows))
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *region == "" {
		return fmt.Errorf("-region is required")
	}
	cfg, err := loadConfig(*configPath)
	if err != nil {
		return err
	}
	store, err := loadData(*data)
	if err != nil {
		return err
	}
	from, to, ok := store.TimeBounds(dataset.Filter{RegionPrefix: *region})
	if !ok {
		return fmt.Errorf("no records for region %q", *region)
	}
	points, err := cfg.ScoreWindows(store, *region, from, to.Add(time.Nanosecond), *window)
	if err != nil {
		return err
	}
	return report.WriteTimeSeriesCSV(out, points)
}
