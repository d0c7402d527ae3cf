package iqb

import (
	"fmt"
	"sort"
)

// LeaveOneOut holds the score obtained when one dataset is removed,
// quantifying how much the composite relies on cross-dataset
// corroboration (the poster's stated reason for using multiple sources).
type LeaveOneOut struct {
	Dataset string  `json:"dataset"`
	Score   float64 `json:"score"`
	Delta   float64 `json:"delta"` // Score - full score
}

// LeaveOneOutAnalysis recomputes the score with each dataset excluded in
// turn, in dataset-name order. Datasets whose removal leaves no usable
// data are skipped, so a configuration of one dataset returns its full
// score and no rows.
func (c Config) LeaveOneOutAnalysis(agg *Aggregates) (full Score, outs []LeaveOneOut, err error) {
	p, vals, err := c.read(func(p *plan) ([]cellAggregate, error) { return p.values(agg) })
	if err != nil {
		return Score{}, nil, err
	}
	if full, err = p.score(vals); err != nil {
		return Score{}, nil, err
	}
	for i, name := range p.names {
		// A score fails only with ErrNoUsableData.
		s, err := p.without(i).score(vals)
		if err != nil {
			continue
		}
		outs = append(outs, LeaveOneOut{Dataset: name, Score: s.IQB, Delta: s.IQB - full.IQB})
	}
	sort.Slice(outs, func(i, j int) bool { return outs[i].Dataset < outs[j].Dataset })
	return full, outs, nil
}

// WeightPerturbation is the score range induced by moving a single
// requirement weight by ±1 (within the 0..5 scale).
type WeightPerturbation struct {
	UseCase     UseCase `json:"-"`
	UseCaseName string  `json:"use_case"`
	Requirement string  `json:"requirement"`
	Base        Weight  `json:"base_weight"`
	ScoreDown   float64 `json:"score_minus_one"` // weight-1 (or base if at 0)
	ScoreUp     float64 `json:"score_plus_one"`  // weight+1 (or base if at 5)
	Range       float64 `json:"range"`
}

// WeightSensitivity perturbs every Table 1 cell by ±1 and reports the
// induced score ranges, largest first — experiment E7. A step down that
// leaves no positively weighted use case with usable data keeps the base
// score.
func (c Config) WeightSensitivity(agg *Aggregates) ([]WeightPerturbation, error) {
	p, vals, err := c.read(func(p *plan) ([]cellAggregate, error) { return p.values(agg) })
	if err != nil {
		return nil, err
	}
	base, err := p.score(vals)
	if err != nil {
		return nil, err
	}
	var out []WeightPerturbation
	for _, u := range AllUseCases() {
		for _, r := range AllRequirements() {
			w := c.RequirementWeights[u][r]
			// scoreAt scores a copy of the plan with w(u,r) replaced; a use
			// case the configuration does not weigh scores as the base.
			scoreAt := func(w Weight) (Score, error) {
				q := *p
				q.useCases[u].reqs[r].weight = w
				return q.score(vals)
			}
			pt := WeightPerturbation{
				UseCase: u, UseCaseName: u.String(), Requirement: r.String(),
				Base: w, ScoreDown: base.IQB, ScoreUp: base.IQB,
			}
			// A score fails only with ErrNoUsableData, which only a step down
			// can bring about; such a step keeps the base score.
			if w > 0 {
				if s, err := scoreAt(w - 1); err == nil {
					pt.ScoreDown = s.IQB
				}
			}
			if w < 5 {
				if s, err := scoreAt(w + 1); err == nil {
					pt.ScoreUp = s.IQB
				}
			}
			pt.Range = max(pt.ScoreDown, pt.ScoreUp, base.IQB) - min(pt.ScoreDown, pt.ScoreUp, base.IQB)
			out = append(out, pt)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Range > out[j].Range })
	return out, nil
}

// SweepPoint is one point of a threshold sweep.
type SweepPoint struct {
	Threshold float64 `json:"threshold"`
	Score     float64 `json:"score"`
}

// ThresholdSweep recomputes the score while varying one threshold cell
// across the given values (at the configured quality level) — experiment
// E8. The returned points are in input order. A value that no valid band
// of the cell can hold at that level (a negative bar, or a loss bar
// above 1) fails the sweep.
func (c Config) ThresholdSweep(agg *Aggregates, u UseCase, r Requirement, values []float64) ([]SweepPoint, error) {
	if len(values) == 0 {
		return nil, fmt.Errorf("iqb: empty threshold sweep")
	}
	if u < 0 || u >= numUseCases || r < 0 || r >= numRequirements {
		return nil, fmt.Errorf("iqb: sweep of unknown cell %v/%v", u, r)
	}
	p, err := c.compile()
	if err != nil {
		return nil, fmt.Errorf("iqb: sweep at %v: %w", values[0], err)
	}
	vals, aggErr := p.values(agg)
	out := make([]SweepPoint, 0, len(values))
	for _, v := range values {
		// The other bar of the band can always move to meet a bar at v,
		// so v is valid exactly when the band {v, v} is.
		if err := (Band{Minimum: v, High: v}).validate(u, r); err != nil {
			return nil, fmt.Errorf("iqb: sweep at %v: %w", v, err)
		}
		if aggErr != nil {
			return nil, fmt.Errorf("iqb: sweep at %v: %w", v, aggErr)
		}
		q := *p
		q.useCases[u].reqs[r].threshold = v
		s, err := q.score(vals)
		if err != nil {
			return nil, fmt.Errorf("iqb: sweep at %v: %w", v, err)
		}
		out = append(out, SweepPoint{Threshold: v, Score: s.IQB})
	}
	return out, nil
}
