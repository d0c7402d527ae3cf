package iqb

import (
	"fmt"

	"iqb/internal/units"
)

// QualityLevel selects which of the paper's two quality bars a score is
// computed against (Fig. 2 defines both).
type QualityLevel int

// The two quality levels of Fig. 2.
const (
	MinimumQuality QualityLevel = iota
	HighQuality
)

// String names the quality level.
func (q QualityLevel) String() string {
	switch q {
	case MinimumQuality:
		return "minimum"
	case HighQuality:
		return "high"
	default:
		return fmt.Sprintf("QualityLevel(%d)", int(q))
	}
}

// Band holds the minimum- and high-quality thresholds for one
// (use case, requirement) cell of Fig. 2. For higher-better requirements
// both are lower bounds with High >= Minimum; for lower-better
// requirements both are upper bounds with High <= Minimum.
type Band struct {
	Minimum float64 `json:"minimum"`
	High    float64 `json:"high"`
}

// At returns the threshold for the chosen quality level.
func (b Band) At(q QualityLevel) float64 {
	if q == MinimumQuality {
		return b.Minimum
	}
	return b.High
}

// Thresholds is the full Fig. 2 table: per use case, per requirement.
type Thresholds map[UseCase]map[Requirement]Band

// DefaultThresholds returns the repository's default threshold table.
//
// The poster presents these values only as a figure; the numbers here
// are this repository's substitution (see PAPER.md), drawn from the
// consumer broadband label literature the poster cites (Cranor et al.)
// and FCC/ITU application-requirement guidance. Throughputs are Mbit/s
// lower bounds, latency is a milliseconds upper bound, loss is a
// fraction upper bound.
func DefaultThresholds() Thresholds {
	return Thresholds{
		WebBrowsing: {
			Download: {Minimum: 5, High: 25},
			Upload:   {Minimum: 1, High: 5},
			Latency:  {Minimum: 150, High: 50},
			Loss:     {Minimum: 0.025, High: 0.005},
		},
		VideoStreaming: {
			Download: {Minimum: 10, High: 50},
			Upload:   {Minimum: 1, High: 5},
			Latency:  {Minimum: 200, High: 100},
			Loss:     {Minimum: 0.02, High: 0.005},
		},
		AudioStreaming: {
			Download: {Minimum: 1, High: 5},
			Upload:   {Minimum: 0.5, High: 1},
			Latency:  {Minimum: 200, High: 100},
			Loss:     {Minimum: 0.02, High: 0.005},
		},
		VideoConferencing: {
			Download: {Minimum: 5, High: 25},
			Upload:   {Minimum: 3, High: 12},
			Latency:  {Minimum: 150, High: 50},
			Loss:     {Minimum: 0.01, High: 0.0025},
		},
		OnlineBackup: {
			Download: {Minimum: 10, High: 100},
			Upload:   {Minimum: 5, High: 50},
			Latency:  {Minimum: 300, High: 100},
			Loss:     {Minimum: 0.025, High: 0.01},
		},
		Gaming: {
			Download: {Minimum: 10, High: 50},
			Upload:   {Minimum: 3, High: 10},
			Latency:  {Minimum: 100, High: 30},
			Loss:     {Minimum: 0.01, High: 0.0025},
		},
	}
}

// Validate checks the table covers every (use case, requirement) cell
// with internally consistent bands.
func (t Thresholds) Validate() error {
	for _, u := range AllUseCases() {
		reqs, ok := t[u]
		if !ok {
			return fmt.Errorf("iqb: thresholds missing use case %v", u)
		}
		for _, r := range AllRequirements() {
			b, ok := reqs[r]
			if !ok {
				return fmt.Errorf("iqb: thresholds missing %v/%v", u, r)
			}
			if err := b.validate(u, r); err != nil {
				return err
			}
		}
	}
	return nil
}

// validate checks the band of cell (u, r): both bars non-negative,
// ordered by the requirement's direction, and fractions for loss.
func (b Band) validate(u UseCase, r Requirement) error {
	if b.Minimum < 0 || b.High < 0 {
		return fmt.Errorf("iqb: negative threshold for %v/%v", u, r)
	}
	switch RequirementDirection(r) {
	case units.HigherBetter:
		if b.High < b.Minimum {
			return fmt.Errorf("iqb: %v/%v high bar %v below minimum bar %v", u, r, b.High, b.Minimum)
		}
	case units.LowerBetter:
		if b.High > b.Minimum {
			return fmt.Errorf("iqb: %v/%v high bar %v above minimum bar %v", u, r, b.High, b.Minimum)
		}
	}
	if r == Loss && (b.Minimum > 1 || b.High > 1) {
		return fmt.Errorf("iqb: %v loss threshold above 1 (must be a fraction)", u)
	}
	return nil
}
