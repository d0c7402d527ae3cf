package iqb

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"iqb/internal/dataset"
	"iqb/internal/stats"
)

// Aggregates holds the percentile-aggregated metric value for each
// (dataset, requirement) pair of one scoring scope (typically a region
// and time window). Cells that a dataset cannot or did not measure are
// simply absent.
type Aggregates struct {
	values  map[string]map[Requirement]float64
	samples map[string]map[Requirement]int
}

// NewAggregates returns an empty aggregate set.
func NewAggregates() *Aggregates {
	return &Aggregates{
		values:  map[string]map[Requirement]float64{},
		samples: map[string]map[Requirement]int{},
	}
}

// Set records the aggregated value for (dataset, requirement) computed
// from n samples.
func (a *Aggregates) Set(ds string, r Requirement, value float64, n int) {
	if a.values[ds] == nil {
		a.values[ds] = map[Requirement]float64{}
		a.samples[ds] = map[Requirement]int{}
	}
	a.values[ds][r] = value
	a.samples[ds][r] = n
}

// Get returns the aggregate for (dataset, requirement), if present.
func (a *Aggregates) Get(ds string, r Requirement) (float64, bool) {
	m, ok := a.values[ds]
	if !ok {
		return 0, false
	}
	v, ok := m[r]
	return v, ok
}

// Samples returns the sample count behind an aggregate cell.
func (a *Aggregates) Samples(ds string, r Requirement) int {
	if m, ok := a.samples[ds]; ok {
		return m[r]
	}
	return 0
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
// cell has enough data to score.
var ErrNoUsableData = errors.New("iqb: no usable data in any cell")

// ScoreAggregates applies equations 1-5 to pre-computed aggregates.
//
// Cells without data are excluded and their weights renormalized over the
// remaining datasets; requirements with no usable dataset are likewise
// renormalized away within their use case. This is the natural extension
// of the paper's normalization to partial data availability.
func (c Config) ScoreAggregates(agg *Aggregates) (Score, error) {
	if err := c.Validate(); err != nil {
		return Score{}, err
	}
	return c.scoreAggregates(agg)
}

// scoreAggregates is ScoreAggregates under a configuration the caller
// has validated, so a series validates once rather than per window.
func (c Config) scoreAggregates(agg *Aggregates) (Score, error) {
	if agg == nil {
		return Score{}, fmt.Errorf("iqb: nil aggregates")
	}

	usable, total := 0, 0
	var ucScores []UseCaseScore

	useCases := make([]UseCase, 0, len(c.UseCaseWeights))
	for u := range c.UseCaseWeights {
		useCases = append(useCases, u)
	}
	sort.Slice(useCases, func(i, j int) bool { return useCases[i] < useCases[j] })

	for _, u := range useCases {
		uc := UseCaseScore{UseCase: u, Name: u.String(), Weight: c.UseCaseWeights[u]}

		reqWeights := c.RequirementWeights[u]
		reqs := AllRequirements()

		presentReqWeights := map[Requirement]Weight{}
		var reqScores []RequirementScore
		for _, r := range reqs {
			rs := RequirementScore{Requirement: r, Name: r.String(), Weight: reqWeights[r]}
			band := c.Thresholds[u][r]
			threshold := band.At(c.Quality)

			cellWeights := c.DatasetWeights[u][r]
			names := make([]string, 0, len(cellWeights))
			for name := range cellWeights {
				names = append(names, name)
			}
			sort.Strings(names)

			presentCellWeights := map[string]Weight{}
			var cells []DatasetCell
			for _, name := range names {
				total++
				cell := DatasetCell{Dataset: name, Threshold: threshold, Weight: cellWeights[name]}
				v, ok := agg.Get(name, r)
				n := agg.Samples(name, r)
				if !ok || n < c.MinSamples || cellWeights[name] == 0 {
					cell.Missing = true
					cell.Samples = n
					cells = append(cells, cell)
					continue
				}
				usable++
				met, err := c.Thresholds.Meets(u, r, c.Quality, v)
				if err != nil {
					return Score{}, err
				}
				cell.Aggregate = v
				cell.Samples = n
				cell.Met = met
				presentCellWeights[name] = cellWeights[name]
				cells = append(cells, cell)
			}

			if len(presentCellWeights) == 0 {
				rs.Missing = true
				rs.Datasets = cells
				reqScores = append(reqScores, rs)
				continue
			}
			norm, err := NormalizeDatasetWeights(presentCellWeights)
			if err != nil {
				rs.Missing = true
				rs.Datasets = cells
				reqScores = append(reqScores, rs)
				continue
			}
			agreement := 0.0
			for i := range cells {
				if cells[i].Missing {
					continue
				}
				cells[i].NormWeight = norm[cells[i].Dataset]
				if cells[i].Met {
					agreement += cells[i].NormWeight
				}
			}
			rs.Agreement = agreement
			rs.Datasets = cells
			presentReqWeights[r] = reqWeights[r]
			reqScores = append(reqScores, rs)
		}

		if len(presentReqWeights) == 0 {
			// Nothing usable for this use case: contribute nothing and
			// let the use-case tier renormalize.
			uc.Requirements = reqScores
			uc.Score = 0
			ucScores = append(ucScores, uc)
			continue
		}
		normReq, err := NormalizeRequirementWeights(presentReqWeights)
		if err != nil {
			return Score{}, err
		}
		score := 0.0
		for i := range reqScores {
			if reqScores[i].Missing {
				continue
			}
			reqScores[i].NormWeight = normReq[reqScores[i].Requirement]
			score += reqScores[i].NormWeight * reqScores[i].Agreement
		}
		uc.Score = score
		uc.Requirements = reqScores
		ucScores = append(ucScores, uc)
	}

	if usable == 0 {
		return Score{}, ErrNoUsableData
	}

	// Use cases whose every requirement is missing are excluded from the
	// top-level normalization.
	presentUC := map[UseCase]Weight{}
	for _, uc := range ucScores {
		anyPresent := false
		for _, rs := range uc.Requirements {
			if !rs.Missing {
				anyPresent = true
				break
			}
		}
		if anyPresent {
			presentUC[uc.UseCase] = uc.Weight
		}
	}
	normUC, err := NormalizeUseCaseWeights(presentUC)
	if err != nil {
		return Score{}, err
	}
	iqbScore := 0.0
	for i := range ucScores {
		if w, ok := normUC[ucScores[i].UseCase]; ok {
			ucScores[i].NormWeight = w
			iqbScore += w * ucScores[i].Score
		}
	}

	return Score{
		IQB:      iqbScore,
		Grade:    GradeOf(iqbScore),
		Quality:  c.Quality,
		UseCases: ucScores,
		Coverage: float64(usable) / float64(total),
	}, nil
}

// AggregateFiltered computes the Aggregates for every record matching
// the base filter (its Dataset field is overridden per cell), using the
// configured percentile and convention. This is the general scoring
// scope: region subtrees, single ISPs, time windows, or any
// combination.
//
// Region-scoped filters are answered from the store's cell index by
// AggregateSketcher, without materializing record values. Filters the
// cells cannot express (ASN, time windows) read the matching records
// once and gather every (dataset, requirement) cell from that one scan,
// exactly.
func (c Config) AggregateFiltered(store *dataset.Store, base dataset.Filter) (*Aggregates, error) {
	if store == nil {
		return nil, fmt.Errorf("iqb: nil store")
	}
	if base.CellIndexed() {
		return c.AggregateSketcher(store.Sketcher(), base.RegionPrefix)
	}
	base.Dataset = ""
	cv := c.newCellValues()
	for _, r := range store.Gather(base) {
		cv.add(c.Datasets, r)
	}
	return c.aggregateValues(cv)
}

// AggregateSketcher computes the Aggregates of one region subtree from a
// cell index, using the configured percentile and convention, in one
// walk of its cells: a store's own index (AggregateFiltered) or a
// standalone sketcher fed without keeping the records
// (pipeline.RunStreaming). Each aggregate is exact while every
// contributing cell is below the cutover and within the DDSketch
// relative-error bound once any has promoted — deterministic either way,
// since cell state is a pure function of the ingested multiset.
func (c Config) AggregateSketcher(sk *dataset.Sketcher, region string) (*Aggregates, error) {
	if sk == nil {
		return nil, fmt.Errorf("iqb: nil sketcher")
	}
	var qs []dataset.CellQuery
	for _, d := range c.Datasets {
		for _, r := range d.Capabilities {
			qs = append(qs, dataset.CellQuery{Dataset: d.Name, Metric: r, Q: c.effectivePercentile(r)})
		}
	}
	agg := NewAggregates()
	for i, a := range sk.AggregateCells(region, qs) {
		q := qs[i]
		if errors.Is(a.Err, stats.ErrNoData) {
			continue
		}
		if a.Err != nil {
			return nil, fmt.Errorf("iqb: aggregating %s/%v: %w", q.Dataset, q.Metric, a.Err)
		}
		agg.Set(q.Dataset, q.Metric, a.Value, a.Count)
	}
	return agg, nil
}

// ScoreSketcher aggregates and scores one region from a cell index.
func (c Config) ScoreSketcher(sk *dataset.Sketcher, region string) (Score, error) {
	agg, err := c.AggregateSketcher(sk, region)
	if err != nil {
		return Score{}, err
	}
	return c.ScoreAggregates(agg)
}

// cellValues holds one scoring scope's metric values for every
// configured (dataset, requirement) cell: [i][j] is capability j of
// Config.Datasets[i]. Filling every cell from one pass over the scope's
// records replaces one store scan per cell.
type cellValues [][][]float64

func (c Config) newCellValues() cellValues {
	cv := make(cellValues, len(c.Datasets))
	for i, d := range c.Datasets {
		cv[i] = make([][]float64, len(d.Capabilities))
	}
	return cv
}

// add files r's metric values under its dataset's cells; records of
// datasets the configuration does not name are ignored, as they are by
// the per-cell filters.
func (cv cellValues) add(ds []DatasetInfo, r *dataset.Record) {
	for i := range ds {
		if ds[i].Name != r.Dataset {
			continue
		}
		for j, req := range ds[i].Capabilities {
			if v, ok := r.Value(req); ok {
				cv[i][j] = append(cv[i][j], v)
			}
		}
	}
}

// reset empties every cell, keeping its storage for the next scope.
func (cv cellValues) reset() {
	for i := range cv {
		for j := range cv[i] {
			cv[i][j] = cv[i][j][:0]
		}
	}
}

// aggregateValues takes the configured percentile of every non-empty
// cell, selecting in place, so it reorders each cell's values. The exact
// percentile does not depend on value order, so the result equals a
// per-cell store scan's.
func (c Config) aggregateValues(cv cellValues) (*Aggregates, error) {
	agg := NewAggregates()
	for i, d := range c.Datasets {
		for j, r := range d.Capabilities {
			vals := cv[i][j]
			if len(vals) == 0 {
				continue
			}
			p, err := stats.PercentileInPlace(vals, c.effectivePercentile(r), stats.Linear)
			if err != nil {
				return nil, fmt.Errorf("iqb: aggregating %s/%v: %w", d.Name, r, err)
			}
			agg.Set(d.Name, r, p, len(vals))
		}
	}
	return agg, nil
}

// AggregateStore computes the Aggregates for one region subtree and time
// window. From and to may be zero for an unbounded window.
func (c Config) AggregateStore(store *dataset.Store, region string, from, to time.Time) (*Aggregates, error) {
	return c.AggregateFiltered(store, dataset.Filter{RegionPrefix: region, From: from, To: to})
}

// ScoreRegion aggregates and scores one region subtree in one call.
func (c Config) ScoreRegion(store *dataset.Store, region string, from, to time.Time) (Score, error) {
	agg, err := c.AggregateStore(store, region, from, to)
	if err != nil {
		return Score{}, err
	}
	return c.ScoreAggregates(agg)
}

// ScoreFiltered aggregates and scores an arbitrary record scope.
func (c Config) ScoreFiltered(store *dataset.Store, base dataset.Filter) (Score, error) {
	agg, err := c.AggregateFiltered(store, base)
	if err != nil {
		return Score{}, err
	}
	return c.ScoreAggregates(agg)
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
