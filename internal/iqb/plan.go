package iqb

import (
	"errors"
	"fmt"
	"slices"

	"iqb/internal/dataset"
	"iqb/internal/stats"
	"iqb/internal/units"
)

// plan is a Config compiled for scoring: the (dataset, capability) cell
// layout and the three weight tiers as dense arrays, so equations 1-5
// run without building a map. compile builds it and is the only
// validator; every Config method that scores compiles once per call.
type plan struct {
	quality    QualityLevel
	minSamples int
	// names are the configured datasets' names in Config order, as
	// Store.Gather takes them.
	names []string
	// cells lists every (Datasets[i], Capabilities[j]) cell in that order
	// with its effective percentile. It is the sketcher's query list, and
	// a cell's index addresses its gather bucket and its cellAggregate.
	cells []dataset.CellQuery
	// first[i] is dataset i's first cell: its cells are
	// cells[first[i]:first[i+1]].
	first    []int
	useCases [numUseCases]useCasePlan
	// nWeighted counts the weighted (u, r, d) cells, to size a score's
	// result; a copy that drops cells may overcount.
	nWeighted int
}

// useCasePlan is one use case's tier: w(u) and each requirement's plan,
// indexed by Requirement.
type useCasePlan struct {
	configured bool
	weight     Weight
	reqs       [numRequirements]requirementPlan
}

// requirementPlan is one (u, r) pair: w(u,r), the bar at the configured
// quality level, and the weighted datasets in name order.
type requirementPlan struct {
	weight    Weight
	threshold float64
	dir       units.Direction
	datasets  []weightedCell
}

// weightedCell is one w(u,r,d): dataset d's index in plan.names, the
// index of its cell measuring r, and the weight.
type weightedCell struct {
	dataset, cell int
	weight        Weight
}

// cellAggregate is one cell's aggregate over a scoring scope; present is
// false when the scope holds no value for the cell.
type cellAggregate struct {
	value   float64
	samples int
	present bool
}

var errNoDatasets = errors.New("iqb: no datasets configured")

// compile validates c and lays it out for scoring. Its checks and their
// messages are Validate's; where c has several faults, it reports the
// first in use-case, requirement and dataset-name order.
func (c Config) compile() (*plan, error) {
	if err := validateDatasets(c.Datasets); err != nil {
		return nil, err
	}
	if err := c.Thresholds.Validate(); err != nil {
		return nil, err
	}
	if c.Percentile <= 0 || c.Percentile >= 100 {
		return nil, fmt.Errorf("iqb: percentile %v out of (0,100)", c.Percentile)
	}
	if c.Quality != MinimumQuality && c.Quality != HighQuality {
		return nil, fmt.Errorf("iqb: unknown quality level %d", int(c.Quality))
	}
	if c.Convention != MirrorTail && c.Convention != SameTail {
		return nil, fmt.Errorf("iqb: unknown convention %d", int(c.Convention))
	}
	if c.MinSamples < 1 {
		return nil, fmt.Errorf("iqb: min samples %d must be >= 1", c.MinSamples)
	}
	if len(c.UseCaseWeights) == 0 {
		return nil, fmt.Errorf("iqb: no use case weights")
	}
	if err := validateTier(c.UseCaseWeights); err != nil {
		return nil, err
	}
	unknown, found := UseCase(0), false
	for u := range c.UseCaseWeights {
		if (u < 0 || u >= numUseCases) && (!found || u < unknown) {
			unknown, found = u, true
		}
	}
	if found {
		return nil, fmt.Errorf("iqb: weight for unknown use case %d", int(unknown))
	}

	n := len(c.Datasets)
	p := &plan{
		quality:    c.Quality,
		minSamples: c.MinSamples,
		names:      make([]string, n),
		cells:      make([]dataset.CellQuery, 0, n*int(numRequirements)),
		first:      make([]int, n+1),
	}
	// cellOf[i][r] is dataset i's first cell measuring r, or -1.
	cellOf := make([][numRequirements]int, n)
	for i, d := range c.Datasets {
		p.names[i], p.first[i] = d.Name, len(p.cells)
		cellOf[i] = [numRequirements]int{-1, -1, -1, -1}
		for _, r := range d.Capabilities {
			if cellOf[i][r] < 0 {
				cellOf[i][r] = len(p.cells)
			}
			p.cells = append(p.cells, dataset.CellQuery{Dataset: d.Name, Metric: r, Q: c.effectivePercentile(r)})
		}
	}
	p.first[n] = len(p.cells)

	// One backing array holds every (u, r) pair's weighted datasets; a
	// pair has at most one entry per dataset.
	weighted := make([]weightedCell, 0, len(c.UseCaseWeights)*int(numRequirements)*n)
	names := make([]string, 0, n)
	for u := range p.useCases {
		uc := UseCase(u)
		w, ok := c.UseCaseWeights[uc]
		if !ok {
			continue
		}
		reqs, ok := c.RequirementWeights[uc]
		if !ok {
			return nil, fmt.Errorf("iqb: no requirement weights for %v", uc)
		}
		for _, r := range AllRequirements() {
			rw, ok := reqs[r]
			if !ok {
				return nil, fmt.Errorf("iqb: no weight for %v/%v", uc, r)
			}
			if !rw.Valid() {
				return nil, fmt.Errorf("iqb: weight %d for %v/%v out of [0,5]", rw, uc, r)
			}
		}
		if err := validateTier(reqs); err != nil {
			return nil, fmt.Errorf("iqb: %v: %w", uc, err)
		}
		dsw, ok := c.DatasetWeights[uc]
		if !ok {
			return nil, fmt.Errorf("iqb: no dataset weights for %v", uc)
		}
		p.useCases[u].configured, p.useCases[u].weight = true, w
		for _, r := range AllRequirements() {
			cell, ok := dsw[r]
			if !ok {
				return nil, fmt.Errorf("iqb: no dataset weights for %v/%v", uc, r)
			}
			names = names[:0]
			for name := range cell {
				names = append(names, name)
			}
			slices.Sort(names)
			start := len(weighted)
			for _, name := range names {
				i, dw := slices.Index(p.names, name), cell[name]
				switch {
				case !dw.Valid():
					return nil, fmt.Errorf("iqb: weight %d for %v/%v/%s out of [0,5]", dw, uc, r, name)
				case i < 0:
					return nil, fmt.Errorf("iqb: weight references unregistered dataset %q", name)
				case cellOf[i][r] < 0:
					return nil, fmt.Errorf("iqb: dataset %s weighted for %v it cannot measure", name, r)
				}
				weighted = append(weighted, weightedCell{dataset: i, cell: cellOf[i][r], weight: dw})
			}
			p.useCases[u].reqs[r] = requirementPlan{
				weight:    reqs[r],
				threshold: c.Thresholds[uc][r].At(c.Quality),
				dir:       RequirementDirection(r),
				datasets:  weighted[start:len(weighted):len(weighted)],
			}
		}
	}
	p.nWeighted = len(weighted)
	return p, nil
}

// validateTier checks one weight tier over every key: each weight within
// 0..5, reporting the least that is not, and a positive sum, without
// which the tier cannot be normalized.
func validateTier[K comparable](ws map[K]Weight) error {
	total, bad, found := 0, Weight(0), false
	for _, w := range ws {
		if !w.Valid() && (!found || w < bad) {
			bad, found = w, true
		}
		total += int(w)
	}
	if found {
		return fmt.Errorf("iqb: weight %d out of [0,5]", bad)
	}
	if total == 0 {
		return errors.New("iqb: weights sum to zero")
	}
	return nil
}

// score applies equations 1-5 to one scope's cell aggregates.
//
// Cells without usable data (absent, below MinSamples, or weighted 0)
// are excluded and their weights renormalized over the remaining
// datasets; requirements with no usable dataset are likewise
// renormalized away within their use case, and use cases whose usable
// requirements all weigh 0 are left out of the top tier. With no
// positively weighted use case left the score is ErrNoUsableData.
func (p *plan) score(vals []cellAggregate) (Score, error) {
	ucs := make([]UseCaseScore, 0, numUseCases)
	reqs := make([]RequirementScore, 0, int(numUseCases)*int(numRequirements))
	cells := make([]DatasetCell, 0, p.nWeighted)
	usable, total, ucSum := 0, 0, 0
	for u := range p.useCases {
		up := &p.useCases[u]
		if !up.configured {
			continue
		}
		firstReq, reqSum := len(reqs), 0
		for r := range up.reqs {
			rp := &up.reqs[r]
			rs := RequirementScore{Requirement: Requirement(r), Name: Requirement(r).String(), Weight: rp.weight}
			firstCell, cellSum := len(cells), 0
			for _, d := range rp.datasets {
				v := vals[d.cell]
				cell := DatasetCell{Dataset: p.names[d.dataset], Samples: v.samples, Threshold: rp.threshold, Weight: d.weight}
				if !v.present || v.samples < p.minSamples || d.weight == 0 {
					cell.Missing = true
				} else {
					usable++
					cellSum += int(d.weight)
					cell.Aggregate, cell.Met = v.value, rp.dir.Meets(v.value, rp.threshold)
				}
				cells = append(cells, cell)
			}
			total += len(rp.datasets)
			if len(rp.datasets) > 0 {
				rs.Datasets = cells[firstCell:len(cells):len(cells)]
			}
			if cellSum == 0 {
				rs.Missing = true
			} else {
				// Equation 1: the weighted agreement of the usable datasets.
				for i := range rs.Datasets {
					if dc := &rs.Datasets[i]; !dc.Missing {
						dc.NormWeight = float64(dc.Weight) / float64(cellSum)
						if dc.Met {
							rs.Agreement += dc.NormWeight
						}
					}
				}
				reqSum += int(rp.weight)
			}
			reqs = append(reqs, rs)
		}
		uc := UseCaseScore{UseCase: UseCase(u), Name: UseCase(u).String(), Weight: up.weight, Requirements: reqs[firstReq:len(reqs):len(reqs)]}
		if reqSum > 0 {
			// Equations 2-3.
			for i := range uc.Requirements {
				if rs := &uc.Requirements[i]; !rs.Missing {
					rs.NormWeight = float64(rs.Weight) / float64(reqSum)
					uc.Score += rs.NormWeight * rs.Agreement
				}
			}
			// The use case joins the top tier: its weight, normalized below.
			uc.NormWeight = float64(up.weight)
			ucSum += int(up.weight)
		}
		ucs = append(ucs, uc)
	}
	if usable == 0 || ucSum == 0 {
		return Score{}, ErrNoUsableData
	}
	// Equations 4-5. A use case left out has weight 0 and score 0, and so
	// adds 0.
	iqbScore := 0.0
	for i := range ucs {
		ucs[i].NormWeight /= float64(ucSum)
		iqbScore += ucs[i].NormWeight * ucs[i].Score
	}
	return Score{
		IQB:      iqbScore,
		Grade:    GradeOf(iqbScore),
		Quality:  p.quality,
		UseCases: ucs,
		Coverage: float64(usable) / float64(total),
	}, nil
}

// without is p with dataset i left out of every (use case, requirement)
// pair, as if it were not configured.
func (p *plan) without(i int) *plan {
	q := *p
	for u := range q.useCases {
		for r := range q.useCases[u].reqs {
			rp := &q.useCases[u].reqs[r]
			rp.datasets = slices.DeleteFunc(slices.Clone(rp.datasets), func(d weightedCell) bool { return d.dataset == i })
		}
	}
	return &q
}

// values reads agg into the plan's cell layout.
func (p *plan) values(agg *Aggregates) ([]cellAggregate, error) {
	if agg == nil {
		return nil, fmt.Errorf("iqb: nil aggregates")
	}
	vals := make([]cellAggregate, len(p.cells))
	for k, q := range p.cells {
		vals[k] = agg.cells[aggregateKey{q.Dataset, q.Metric}]
	}
	return vals, nil
}

// aggregates is the exchange form of vals.
func (p *plan) aggregates(vals []cellAggregate) *Aggregates {
	agg := NewAggregates()
	for k, v := range vals {
		if v.present {
			agg.cells[aggregateKey{p.cells[k].Dataset, p.cells[k].Metric}] = v
		}
	}
	return agg
}

// sketched takes every cell from the answers to p.cells of one walk of
// a cell index.
func (p *plan) sketched(answers []dataset.CellAnswer) ([]cellAggregate, error) {
	vals := make([]cellAggregate, len(p.cells))
	for k, a := range answers {
		if errors.Is(a.Err, stats.ErrNoData) {
			continue
		}
		if a.Err != nil {
			return nil, fmt.Errorf("iqb: aggregating %s/%v: %w", p.cells[k].Dataset, p.cells[k].Metric, a.Err)
		}
		vals[k] = cellAggregate{value: a.Value, samples: a.Count, present: true}
	}
	return vals, nil
}

// stored answers every cell over the records matching base: from the
// store's cell index when base allows it, else exactly from one read of
// the matching records.
func (p *plan) stored(store *dataset.Store, base dataset.Filter) ([]cellAggregate, error) {
	if base.CellIndexed() {
		return p.sketched(store.AggregateCells(base.RegionPrefix, p.cells))
	}
	base.Dataset = ""
	v := store.Gather(base, p.names)
	buckets := make([][]float64, len(p.cells))
	for _, r := range v.Rows {
		p.gather(buckets, v.DatasetIndex(r), r)
	}
	vals := make([]cellAggregate, len(p.cells))
	if err := p.aggregate(buckets, vals); err != nil {
		return nil, err
	}
	return vals, nil
}

// gather files r's metric values under the cell buckets of configured
// dataset i, its View.DatasetIndex. Rows of datasets the configuration
// does not name (i < 0) are ignored, as they are by the per-cell
// filters.
func (p *plan) gather(buckets [][]float64, i int, r *dataset.Row) {
	if i < 0 {
		return
	}
	for k := p.first[i]; k < p.first[i+1]; k++ {
		if v, ok := r.Value(p.cells[k].Metric); ok {
			buckets[k] = append(buckets[k], v)
		}
	}
}

// aggregate takes every non-empty bucket's percentile into vals and
// empties the buckets for the next scope, keeping their storage. It
// selects in place, so it reorders each bucket; the exact percentile
// does not depend on value order, so the result equals a per-cell store
// scan's.
func (p *plan) aggregate(buckets [][]float64, vals []cellAggregate) error {
	for k, q := range p.cells {
		vals[k] = cellAggregate{}
		if len(buckets[k]) == 0 {
			continue
		}
		v, err := stats.PercentileInPlace(buckets[k], q.Q)
		if err != nil {
			return fmt.Errorf("iqb: aggregating %s/%v: %w", q.Dataset, q.Metric, err)
		}
		vals[k] = cellAggregate{value: v, samples: len(buckets[k]), present: true}
		buckets[k] = buckets[k][:0]
	}
	return nil
}

// scoreBuckets aggregates and scores one scope's gathered buckets.
func (p *plan) scoreBuckets(buckets [][]float64, vals []cellAggregate) (Score, error) {
	if err := p.aggregate(buckets, vals); err != nil {
		return Score{}, err
	}
	return p.score(vals)
}
