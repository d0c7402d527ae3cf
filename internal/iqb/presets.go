package iqb

import "fmt"

// The paper's conclusion positions IQB as "designed to be easily
// adapted (e.g., based on the intended application)". Presets package
// the obvious adaptations as named configurations so downstream tools
// can expose them without hand-editing weight tables.

// PresetName identifies a built-in configuration variant.
type PresetName string

// Built-in presets.
const (
	// PresetPaper is the poster's configuration: Table 1 weights, equal
	// use-case weights, the high-quality bar at the 95th percentile.
	PresetPaper PresetName = "paper"
	// PresetBaseline scores against the minimum-quality bar — the
	// "is the Internet usable at all" view for universal-service policy.
	PresetBaseline PresetName = "baseline"
	// PresetRealtime emphasizes the interactive use cases (video
	// conferencing and gaming) that motivated the framework.
	PresetRealtime PresetName = "realtime"
	// PresetRemoteWork weighs conferencing, browsing, and backup for a
	// work-from-home suitability score.
	PresetRemoteWork PresetName = "remote-work"
)

// Preset returns the named configuration. Every preset validates.
func Preset(name PresetName) (Config, error) {
	cfg := DefaultConfig()
	switch name {
	case PresetPaper:
		// The default is the paper.
	case PresetBaseline:
		cfg.Quality = MinimumQuality
	case PresetRealtime:
		cfg.UseCaseWeights = UseCaseWeights{
			WebBrowsing:       2,
			VideoStreaming:    2,
			AudioStreaming:    1,
			VideoConferencing: 5,
			OnlineBackup:      1,
			Gaming:            5,
		}
	case PresetRemoteWork:
		cfg.UseCaseWeights = UseCaseWeights{
			WebBrowsing:       4,
			VideoStreaming:    1,
			AudioStreaming:    2,
			VideoConferencing: 5,
			OnlineBackup:      4,
			Gaming:            1,
		}
	default:
		return Config{}, fmt.Errorf("iqb: unknown preset %q", name)
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, fmt.Errorf("iqb: preset %q invalid: %w", name, err)
	}
	return cfg, nil
}
