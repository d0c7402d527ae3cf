package iqb

import "fmt"

// Dataset name constants for the three pipelines the poster builds on.
const (
	DatasetNDT        = "ndt"
	DatasetCloudflare = "cloudflare"
	DatasetOokla      = "ookla"
)

// DatasetInfo describes one source dataset: its name and which
// requirements it can measure. The capability matrix encodes real-world
// constraints such as Ookla's public aggregates carrying no packet loss.
type DatasetInfo struct {
	Name string `json:"name"`
	// Capabilities lists the requirements the dataset reports.
	Capabilities []Requirement `json:"capabilities"`
	// Description documents the measurement methodology, for reports.
	Description string `json:"description,omitempty"`
}

// Measures reports whether the dataset reports requirement r.
func (d DatasetInfo) Measures(r Requirement) bool {
	for _, c := range d.Capabilities {
		if c == r {
			return true
		}
	}
	return false
}

// DefaultDatasets returns the three-source registry the poster uses:
// M-Lab NDT and Cloudflare at the individual-test level (all four
// metrics) and Ookla aggregates (no packet loss column).
func DefaultDatasets() []DatasetInfo {
	return []DatasetInfo{
		{
			Name:         DatasetNDT,
			Capabilities: []Requirement{Download, Upload, Latency, Loss},
			Description:  "Single-stream 10s transfer with BBR-era counters (NDT7-style)",
		},
		{
			Name:         DatasetCloudflare,
			Capabilities: []Requirement{Download, Upload, Latency, Loss},
			Description:  "Fixed-size HTTP transfer ladder with percentile aggregation",
		},
		{
			Name:         DatasetOokla,
			Capabilities: []Requirement{Download, Upload, Latency},
			Description:  "Multi-connection test, published as regional aggregates without loss",
		},
	}
}

// validateDatasets checks names are unique and capabilities non-empty.
func validateDatasets(ds []DatasetInfo) error {
	if len(ds) == 0 {
		return errNoDatasets
	}
	seen := map[string]bool{}
	for _, d := range ds {
		if d.Name == "" {
			return fmt.Errorf("iqb: dataset with empty name")
		}
		if seen[d.Name] {
			return fmt.Errorf("iqb: duplicate dataset %q", d.Name)
		}
		seen[d.Name] = true
		if len(d.Capabilities) == 0 {
			return fmt.Errorf("iqb: dataset %q measures nothing", d.Name)
		}
		for _, r := range d.Capabilities {
			if int(r) < 0 || int(r) >= len(AllRequirements()) {
				return fmt.Errorf("iqb: dataset %q has unknown capability %d", d.Name, int(r))
			}
		}
	}
	return nil
}
