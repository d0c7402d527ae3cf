package iqb

import (
	"errors"
	"fmt"
	"time"

	"iqb/internal/dataset"
)

// Aggregates holds the percentile-aggregated metric value for each
// (dataset, requirement) pair of one scoring scope (typically a region
// and time window). Cells that a dataset cannot or did not measure are
// simply absent.
//
// Aggregates is the exchange form of a scope's cells, for callers that
// build or keep them. Each Config method that takes or returns one
// converts it once per call to or from the dense layout it scores on;
// cells of datasets or capabilities the configuration does not list are
// ignored.
type Aggregates struct {
	cells map[aggregateKey]cellAggregate
}

type aggregateKey struct {
	dataset string
	r       Requirement
}

// NewAggregates returns an empty aggregate set.
func NewAggregates() *Aggregates {
	return &Aggregates{cells: map[aggregateKey]cellAggregate{}}
}

// Set records the aggregated value for (dataset, requirement) computed
// from n samples.
func (a *Aggregates) Set(ds string, r Requirement, value float64, n int) {
	a.cells[aggregateKey{ds, r}] = cellAggregate{value: value, samples: n, present: true}
}

// Get returns the aggregate for (dataset, requirement), if present.
func (a *Aggregates) Get(ds string, r Requirement) (float64, bool) {
	c := a.cells[aggregateKey{ds, r}]
	return c.value, c.present
}

// Samples returns the sample count behind an aggregate cell.
func (a *Aggregates) Samples(ds string, r Requirement) int {
	return a.cells[aggregateKey{ds, r}].samples
}

// DatasetCell is the leaf of a score breakdown: one dataset's verdict on
// one requirement for one use case — the S(u,r,d) of equation 1.
type DatasetCell struct {
	Dataset    string  `json:"dataset"`
	Aggregate  float64 `json:"aggregate"`
	Samples    int     `json:"samples"`
	Threshold  float64 `json:"threshold"`
	Met        bool    `json:"met"`
	Weight     Weight  `json:"weight"`
	NormWeight float64 `json:"norm_weight"`
	// Missing marks cells excluded from scoring (no data or below the
	// minimum sample count); their weight is renormalized away.
	Missing bool `json:"missing"`
}

// RequirementScore is S(u,r) of equation 1: the weighted agreement of the
// datasets on requirement r for use case u.
type RequirementScore struct {
	Requirement Requirement   `json:"-"`
	Name        string        `json:"requirement"`
	Agreement   float64       `json:"agreement"`
	Weight      Weight        `json:"weight"`
	NormWeight  float64       `json:"norm_weight"`
	Datasets    []DatasetCell `json:"datasets"`
	// Missing marks requirements with no usable dataset at all.
	Missing bool `json:"missing"`
}

// UseCaseScore is S(u) of equations 2-3.
type UseCaseScore struct {
	UseCase      UseCase            `json:"-"`
	Name         string             `json:"use_case"`
	Score        float64            `json:"score"`
	Weight       Weight             `json:"weight"`
	NormWeight   float64            `json:"norm_weight"`
	Requirements []RequirementScore `json:"requirements"`
}

// Score is the complete result: S_IQB of equations 4-5 plus the full
// explanation tree.
type Score struct {
	IQB      float64        `json:"iqb"`
	Grade    Grade          `json:"grade"`
	Quality  QualityLevel   `json:"-"`
	UseCases []UseCaseScore `json:"use_cases"`
	// Coverage is the fraction of (u,r,d) cells that had usable data.
	Coverage float64 `json:"coverage"`
}

// ErrNoUsableData is returned when no (use case, requirement, dataset)
// cell has enough data to score, or when every use case with usable
// data weighs 0 at the use-case or requirement tier.
var ErrNoUsableData = errors.New("iqb: no usable data in any cell")

// ScoreAggregates applies equations 1-5 to pre-computed aggregates.
//
// Cells without data are excluded and their weights renormalized over the
// remaining datasets; requirements with no usable dataset are likewise
// renormalized away within their use case. This is the natural extension
// of the paper's normalization to partial data availability. A use case
// whose usable requirements all weigh 0 contributes nothing and is left
// out of the top tier, like one with no usable requirement.
func (c Config) ScoreAggregates(agg *Aggregates) (Score, error) {
	p, vals, err := c.read(func(p *plan) ([]cellAggregate, error) { return p.values(agg) })
	if err != nil {
		return Score{}, err
	}
	return p.score(vals)
}

// read compiles c and reads one scope's cell aggregates through fn.
func (c Config) read(fn func(*plan) ([]cellAggregate, error)) (*plan, []cellAggregate, error) {
	p, err := c.compile()
	if err != nil {
		return nil, nil, err
	}
	vals, err := fn(p)
	if err != nil {
		return nil, nil, err
	}
	return p, vals, nil
}

// AggregateFiltered computes the Aggregates for every record matching
// the base filter (its Dataset field is overridden per cell), using the
// configured percentile and convention. This is the general scoring
// scope: region subtrees, single ISPs, time windows, or any
// combination.
//
// Region-scoped filters are answered from the store's cell index
// (Store.AggregateCells), without materializing record values. Filters the
// cells cannot express (ASN, time windows) read the matching records
// once and gather every (dataset, requirement) cell from that one scan,
// exactly.
func (c Config) AggregateFiltered(store *dataset.Store, base dataset.Filter) (*Aggregates, error) {
	if store == nil {
		return nil, fmt.Errorf("iqb: nil store")
	}
	p, vals, err := c.read(func(p *plan) ([]cellAggregate, error) { return p.stored(store, base) })
	if err != nil {
		return nil, err
	}
	return p.aggregates(vals), nil
}

// AggregateSketcher computes the Aggregates of one region subtree from a
// cell index, using the configured percentile and convention, in one
// walk of its cells: a standalone sketcher fed without keeping the
// records (pipeline.RunStreaming), as AggregateFiltered reads a store's
// own index. Each aggregate is exact while every
// contributing cell is below the cutover and within the DDSketch
// relative-error bound once any has promoted — deterministic either way,
// since cell state is a pure function of the ingested multiset.
func (c Config) AggregateSketcher(sk *dataset.Sketcher, region string) (*Aggregates, error) {
	if sk == nil {
		return nil, fmt.Errorf("iqb: nil sketcher")
	}
	p, vals, err := c.read(func(p *plan) ([]cellAggregate, error) { return p.sketched(sk.AggregateCells(region, p.cells)) })
	if err != nil {
		return nil, err
	}
	return p.aggregates(vals), nil
}

// ScoreSketcher aggregates and scores one region from a cell index.
func (c Config) ScoreSketcher(sk *dataset.Sketcher, region string) (Score, error) {
	if sk == nil {
		return Score{}, fmt.Errorf("iqb: nil sketcher")
	}
	p, vals, err := c.read(func(p *plan) ([]cellAggregate, error) { return p.sketched(sk.AggregateCells(region, p.cells)) })
	if err != nil {
		return Score{}, err
	}
	return p.score(vals)
}

// AggregateStore computes the Aggregates for one region subtree and time
// window. From and to may be zero for an unbounded window.
func (c Config) AggregateStore(store *dataset.Store, region string, from, to time.Time) (*Aggregates, error) {
	return c.AggregateFiltered(store, dataset.Filter{RegionPrefix: region, From: from, To: to})
}

// ScoreRegion aggregates and scores one region subtree in one call.
func (c Config) ScoreRegion(store *dataset.Store, region string, from, to time.Time) (Score, error) {
	return c.ScoreFiltered(store, dataset.Filter{RegionPrefix: region, From: from, To: to})
}

// ScoreFiltered aggregates and scores an arbitrary record scope.
func (c Config) ScoreFiltered(store *dataset.Store, base dataset.Filter) (Score, error) {
	if store == nil {
		return Score{}, fmt.Errorf("iqb: nil store")
	}
	p, vals, err := c.read(func(p *plan) ([]cellAggregate, error) { return p.stored(store, base) })
	if err != nil {
		return Score{}, err
	}
	return p.score(vals)
}

// UseCaseByName returns the named use-case component of the score.
func (s Score) UseCaseByName(u UseCase) (UseCaseScore, bool) {
	for _, uc := range s.UseCases {
		if uc.UseCase == u {
			return uc, true
		}
	}
	return UseCaseScore{}, false
}
