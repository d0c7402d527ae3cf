// Package iqb implements the Internet Quality Barometer framework from
// "Poster: The Internet Quality Barometer Framework" (IMC 2025): a
// three-tier model (use cases → network requirements → datasets) that
// aggregates openly available measurement datasets at the 95th percentile,
// checks them against per-use-case quality thresholds, and combines the
// binary outcomes through three levels of normalized weights into the
// composite IQB score (equations 1-5 of the paper).
package iqb

import (
	"fmt"

	"iqb/internal/dataset"
	"iqb/internal/units"
)

// UseCase is one of the paper's six user-centric Internet use cases.
type UseCase int

// The six use cases, following Cranor et al. as adopted by the paper.
const (
	WebBrowsing UseCase = iota
	VideoStreaming
	AudioStreaming
	VideoConferencing
	OnlineBackup
	Gaming
	numUseCases
)

// AllUseCases returns every use case in declaration order.
func AllUseCases() []UseCase {
	out := make([]UseCase, numUseCases)
	for i := range out {
		out[i] = UseCase(i)
	}
	return out
}

// String names the use case.
func (u UseCase) String() string {
	switch u {
	case WebBrowsing:
		return "web-browsing"
	case VideoStreaming:
		return "video-streaming"
	case AudioStreaming:
		return "audio-streaming"
	case VideoConferencing:
		return "video-conferencing"
	case OnlineBackup:
		return "online-backup"
	case Gaming:
		return "gaming"
	default:
		return fmt.Sprintf("UseCase(%d)", int(u))
	}
}

// Title returns the display name used in the paper's tables and figures.
func (u UseCase) Title() string {
	switch u {
	case WebBrowsing:
		return "Web Browsing"
	case VideoStreaming:
		return "Video Streaming"
	case AudioStreaming:
		return "Audio Streaming"
	case VideoConferencing:
		return "Video Conferencing"
	case OnlineBackup:
		return "Online Backup"
	case Gaming:
		return "Gaming"
	default:
		return u.String()
	}
}

// ParseUseCase resolves a use case by its String name.
func ParseUseCase(s string) (UseCase, error) {
	for _, u := range AllUseCases() {
		if u.String() == s {
			return u, nil
		}
	}
	return 0, fmt.Errorf("iqb: unknown use case %q", s)
}

// Requirement is a network requirement — the middle tier of the
// framework. The four requirements coincide with the dataset metrics, so
// the type is shared with the dataset package.
type Requirement = dataset.Metric

// The four network requirements.
const (
	Download = dataset.Download
	Upload   = dataset.Upload
	Latency  = dataset.Latency
	Loss     = dataset.Loss
	// numRequirements sizes arrays indexed by Requirement.
	numRequirements = Loss + 1
)

// AllRequirements returns every requirement in declaration order.
func AllRequirements() []Requirement { return dataset.AllMetrics() }

// RequirementDirection reports whether larger values of the requirement
// indicate better quality.
func RequirementDirection(r Requirement) units.Direction {
	switch r {
	case Latency, Loss:
		return units.LowerBetter
	default:
		return units.HigherBetter
	}
}

// RequirementUnit names the unit each requirement is expressed in.
func RequirementUnit(r Requirement) string {
	switch r {
	case Download, Upload:
		return "Mbit/s"
	case Latency:
		return "ms"
	case Loss:
		return "fraction"
	default:
		return ""
	}
}
