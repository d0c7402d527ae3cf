package iqb

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"iqb/internal/units"
)

// The map-based scorer that the compiled plan replaced, kept as the
// reference the plan must match: equations 1-5 over nested weight maps,
// Validate over those maps, and the sensitivity analyses over deep
// copies of the Config. It differs from the plan in one respect: where a
// use case's usable requirements all weigh 0, or every use case with
// usable data does, it fails with "iqb: weights sum to zero".

func refNormalize[K comparable](ws map[K]Weight) (map[K]float64, error) {
	total := 0
	for _, w := range ws {
		if !w.Valid() {
			return nil, fmt.Errorf("iqb: weight %d out of [0,5]", w)
		}
		total += int(w)
	}
	if total == 0 {
		return nil, fmt.Errorf("iqb: weights sum to zero")
	}
	out := make(map[K]float64, len(ws))
	for k, w := range ws {
		out[k] = float64(w) / float64(total)
	}
	return out, nil
}

func refValidate(c Config) error {
	if err := validateDatasets(c.Datasets); err != nil {
		return err
	}
	if err := c.Thresholds.Validate(); err != nil {
		return err
	}
	if c.Percentile <= 0 || c.Percentile >= 100 {
		return fmt.Errorf("iqb: percentile %v out of (0,100)", c.Percentile)
	}
	if c.Quality != MinimumQuality && c.Quality != HighQuality {
		return fmt.Errorf("iqb: unknown quality level %d", int(c.Quality))
	}
	if c.Convention != MirrorTail && c.Convention != SameTail {
		return fmt.Errorf("iqb: unknown convention %d", int(c.Convention))
	}
	if c.MinSamples < 1 {
		return fmt.Errorf("iqb: min samples %d must be >= 1", c.MinSamples)
	}
	if len(c.UseCaseWeights) == 0 {
		return fmt.Errorf("iqb: no use case weights")
	}
	if _, err := refNormalize(c.UseCaseWeights); err != nil {
		return err
	}
	for u := range c.UseCaseWeights {
		if int(u) < 0 || int(u) >= int(numUseCases) {
			return fmt.Errorf("iqb: weight for unknown use case %d", int(u))
		}
		reqs, ok := c.RequirementWeights[u]
		if !ok {
			return fmt.Errorf("iqb: no requirement weights for %v", u)
		}
		for _, r := range AllRequirements() {
			if _, ok := reqs[r]; !ok {
				return fmt.Errorf("iqb: no weight for %v/%v", u, r)
			}
			if !reqs[r].Valid() {
				return fmt.Errorf("iqb: weight %d for %v/%v out of [0,5]", reqs[r], u, r)
			}
		}
		if _, err := refNormalize(reqs); err != nil {
			return fmt.Errorf("iqb: %v: %w", u, err)
		}
		dsw, ok := c.DatasetWeights[u]
		if !ok {
			return fmt.Errorf("iqb: no dataset weights for %v", u)
		}
		for _, r := range AllRequirements() {
			cell, ok := dsw[r]
			if !ok {
				return fmt.Errorf("iqb: no dataset weights for %v/%v", u, r)
			}
			for name, w := range cell {
				if !w.Valid() {
					return fmt.Errorf("iqb: weight %d for %v/%v/%s out of [0,5]", w, u, r, name)
				}
				found := false
				for _, d := range c.Datasets {
					if d.Name == name {
						found = true
						if !d.Measures(r) {
							return fmt.Errorf("iqb: dataset %s weighted for %v it cannot measure", name, r)
						}
					}
				}
				if !found {
					return fmt.Errorf("iqb: weight references unregistered dataset %q", name)
				}
			}
		}
	}
	return nil
}

func refScoreAggregates(c Config, agg *Aggregates) (Score, error) {
	if err := refValidate(c); err != nil {
		return Score{}, err
	}
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
		presentReqWeights := map[Requirement]Weight{}
		var reqScores []RequirementScore
		for _, r := range AllRequirements() {
			rs := RequirementScore{Requirement: r, Name: r.String(), Weight: reqWeights[r]}
			threshold := c.Thresholds[u][r].At(c.Quality)

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
				cell.Aggregate = v
				cell.Samples = n
				cell.Met = RequirementDirection(r).Meets(v, threshold)
				presentCellWeights[name] = cellWeights[name]
				cells = append(cells, cell)
			}

			if len(presentCellWeights) == 0 {
				rs.Missing = true
				rs.Datasets = cells
				reqScores = append(reqScores, rs)
				continue
			}
			norm, err := refNormalize(presentCellWeights)
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
			uc.Requirements = reqScores
			uc.Score = 0
			ucScores = append(ucScores, uc)
			continue
		}
		normReq, err := refNormalize(presentReqWeights)
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

	presentUC := map[UseCase]Weight{}
	for _, uc := range ucScores {
		for _, rs := range uc.Requirements {
			if !rs.Missing {
				presentUC[uc.UseCase] = uc.Weight
				break
			}
		}
	}
	normUC, err := refNormalize(presentUC)
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

func refLeaveOneOut(c Config, agg *Aggregates) (full Score, outs []LeaveOneOut, err error) {
	full, err = refScoreAggregates(c, agg)
	if err != nil {
		return Score{}, nil, err
	}
	for _, d := range c.Datasets {
		reduced := c
		reduced.Datasets = nil
		for _, other := range c.Datasets {
			if other.Name != d.Name {
				reduced.Datasets = append(reduced.Datasets, other)
			}
		}
		if len(reduced.Datasets) == 0 {
			continue // no dataset left, so no usable data
		}
		reduced.DatasetWeights = refCloneDatasetWeights(c.DatasetWeights)
		for _, u := range AllUseCases() {
			for _, r := range AllRequirements() {
				delete(reduced.DatasetWeights[u][r], d.Name)
			}
		}
		s, err := refScoreAggregates(reduced, agg)
		if errors.Is(err, ErrNoUsableData) {
			continue
		}
		if err != nil {
			return Score{}, nil, fmt.Errorf("iqb: leave-one-out without %s: %w", d.Name, err)
		}
		outs = append(outs, LeaveOneOut{Dataset: d.Name, Score: s.IQB, Delta: s.IQB - full.IQB})
	}
	sort.Slice(outs, func(i, j int) bool { return outs[i].Dataset < outs[j].Dataset })
	return full, outs, nil
}

func refWeightSensitivity(c Config, agg *Aggregates) ([]WeightPerturbation, error) {
	base, err := refScoreAggregates(c, agg)
	if err != nil {
		return nil, err
	}
	var out []WeightPerturbation
	for _, u := range AllUseCases() {
		for _, r := range AllRequirements() {
			w := c.RequirementWeights[u][r]
			p := WeightPerturbation{
				UseCase: u, UseCaseName: u.String(), Requirement: r.String(),
				Base: w, ScoreDown: base.IQB, ScoreUp: base.IQB,
			}
			if w > 0 {
				s, err := refScoreAggregates(refWithRequirementWeight(c, u, r, w-1), agg)
				if err != nil && !errors.Is(err, ErrNoUsableData) {
					return nil, err
				}
				if err == nil {
					p.ScoreDown = s.IQB
				}
			}
			if w < 5 {
				s, err := refScoreAggregates(refWithRequirementWeight(c, u, r, w+1), agg)
				if err != nil {
					return nil, err
				}
				p.ScoreUp = s.IQB
			}
			lo, hi := p.ScoreDown, p.ScoreUp
			if lo > hi {
				lo, hi = hi, lo
			}
			if base.IQB < lo {
				lo = base.IQB
			}
			if base.IQB > hi {
				hi = base.IQB
			}
			p.Range = hi - lo
			out = append(out, p)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Range > out[j].Range })
	return out, nil
}

func refWithRequirementWeight(c Config, u UseCase, r Requirement, w Weight) Config {
	out := c
	out.RequirementWeights = make(RequirementWeights, len(c.RequirementWeights))
	for uc, reqs := range c.RequirementWeights {
		m := make(map[Requirement]Weight, len(reqs))
		for rr, ww := range reqs {
			m[rr] = ww
		}
		out.RequirementWeights[uc] = m
	}
	out.RequirementWeights[u][r] = w
	return out
}

func refThresholdSweep(c Config, agg *Aggregates, u UseCase, r Requirement, values []float64) ([]SweepPoint, error) {
	if len(values) == 0 {
		return nil, fmt.Errorf("iqb: empty threshold sweep")
	}
	out := make([]SweepPoint, 0, len(values))
	for _, v := range values {
		mod := c
		mod.Thresholds = make(Thresholds, len(c.Thresholds))
		for uc, reqs := range c.Thresholds {
			m := make(map[Requirement]Band, len(reqs))
			for rr, b := range reqs {
				m[rr] = b
			}
			mod.Thresholds[uc] = m
		}
		b := mod.Thresholds[u][r]
		higherBetter := RequirementDirection(r) == units.HigherBetter
		if c.Quality == HighQuality {
			b.High = v
			if higherBetter && b.Minimum > b.High {
				b.Minimum = b.High
			} else if !higherBetter && b.Minimum < b.High {
				b.Minimum = b.High
			}
		} else {
			b.Minimum = v
			if higherBetter && b.High < b.Minimum {
				b.High = b.Minimum
			} else if !higherBetter && b.High > b.Minimum {
				b.High = b.Minimum
			}
		}
		mod.Thresholds[u][r] = b
		s, err := refScoreAggregates(mod, agg)
		if err != nil {
			return nil, fmt.Errorf("iqb: sweep at %v: %w", v, err)
		}
		out = append(out, SweepPoint{Threshold: v, Score: s.IQB})
	}
	return out, nil
}

func refCloneDatasetWeights(w DatasetWeights) DatasetWeights {
	out := make(DatasetWeights, len(w))
	for u, reqs := range w {
		m := make(map[Requirement]map[string]Weight, len(reqs))
		for r, cell := range reqs {
			inner := make(map[string]Weight, len(cell))
			for name, ww := range cell {
				inner[name] = ww
			}
			m[r] = inner
		}
		out[u] = m
	}
	return out
}

// fuzzInput hands out a fuzz input's bytes in order, then zeros.
type fuzzInput []byte

func (in *fuzzInput) next() byte {
	if len(*in) == 0 {
		return 0
	}
	b := (*in)[0]
	*in = (*in)[1:]
	return b
}

// Aggregate values and swept thresholds are drawn from short lists that
// hold the default bars themselves, so cells land on, above and below
// them.
var (
	fuzzValues = [numRequirements][]float64{
		Download: {0.1, 1, 5, 10, 25, 50, 100, 500},
		Upload:   {0.1, 0.5, 1, 3, 5, 10, 12, 50},
		Latency:  {15, 30, 50, 100, 150, 200, 300, 900},
		Loss:     {0, 0.001, 0.0025, 0.005, 0.01, 0.02, 0.025, 0.2},
	}
	fuzzSweep       = []float64{-1, 0, 0.0025, 0.01, 0.5, 1, 1.5, 5, 12, 30, 50, 100, 200, 1e9}
	fuzzPercentiles = []float64{95, 90, 50, 99.5, 5}
)

// decodeScoreCase decodes a fuzz input into a valid config of one to
// three datasets, sparse aggregates, and one threshold sweep. The byte
// layout, in order:
//
//   - the rotation of the dataset names, the dataset count, quality,
//     convention, percentile and MinSamples: one byte each;
//   - each dataset's capability mask: bits 0-3 name requirements, bits
//     4-5 the one used when those are all clear, and bit 7 repeats the
//     first capability;
//   - per use case, its weight (absent when b%7 == 6), then per
//     requirement its weight and one byte per dataset for w(u,r,d)
//     (absent when b%7 == 6 or the dataset cannot measure r);
//   - per dataset name (three, then one no config names) and
//     requirement, a cell byte (absent when b%3 == 0, else a value
//     index), followed by a sample count byte when present;
//   - the swept use case, requirement and count, then the value indices.
//
// Weights are b%6. A use-case tier that sums to 0 gets web-browsing 1,
// and a configured use case whose requirement weights sum to 0 gets
// download 1, so the config validates.
func decodeScoreCase(data []byte) (c Config, agg *Aggregates, u UseCase, r Requirement, sweep []float64) {
	in := fuzzInput(data)
	names := []string{DatasetNDT, DatasetCloudflare, DatasetOokla}
	rot := int(in.next())
	n := 1 + int(in.next())%3
	c = Config{
		UseCaseWeights:     UseCaseWeights{},
		RequirementWeights: RequirementWeights{},
		DatasetWeights:     DatasetWeights{},
		Thresholds:         DefaultThresholds(),
		Quality:            QualityLevel(in.next() % 2),
		Convention:         Convention(in.next() % 2),
		Percentile:         fuzzPercentiles[int(in.next())%len(fuzzPercentiles)],
		MinSamples:         1 + int(in.next())%30,
	}
	for i := 0; i < n; i++ {
		d := DatasetInfo{Name: names[(rot+i)%3]}
		mask := in.next()
		for _, r := range AllRequirements() {
			if mask&(1<<r) != 0 {
				d.Capabilities = append(d.Capabilities, r)
			}
		}
		if len(d.Capabilities) == 0 {
			d.Capabilities = []Requirement{Requirement(mask>>4) % numRequirements}
		}
		if mask&0x80 != 0 {
			d.Capabilities = append(d.Capabilities, d.Capabilities[0])
		}
		c.Datasets = append(c.Datasets, d)
	}
	ucSum := 0
	for _, u := range AllUseCases() {
		if b := in.next(); b%7 != 6 {
			c.UseCaseWeights[u] = Weight(b % 6)
			ucSum += int(b % 6)
		}
		c.RequirementWeights[u] = map[Requirement]Weight{}
		c.DatasetWeights[u] = map[Requirement]map[string]Weight{}
		reqSum := 0
		for _, r := range AllRequirements() {
			w := Weight(in.next() % 6)
			c.RequirementWeights[u][r] = w
			reqSum += int(w)
			cell := map[string]Weight{}
			for _, d := range c.Datasets {
				if b := in.next(); d.Measures(r) && b%7 != 6 {
					cell[d.Name] = Weight(b % 6)
				}
			}
			c.DatasetWeights[u][r] = cell
		}
		if reqSum == 0 {
			c.RequirementWeights[u][Download] = 1
		}
	}
	if ucSum == 0 {
		c.UseCaseWeights[WebBrowsing] = 1
	}
	agg = NewAggregates()
	for _, name := range append(names, "other") {
		for _, r := range AllRequirements() {
			if b := in.next(); b%3 != 0 {
				vs := fuzzValues[r]
				agg.Set(name, r, vs[int(b/3)%len(vs)], int(in.next()%40))
			}
		}
	}
	u = UseCase(in.next() % byte(numUseCases))
	r = Requirement(in.next() % byte(numRequirements))
	for k := 1 + int(in.next()%4); k > 0; k-- {
		sweep = append(sweep, fuzzSweep[int(in.next())%len(fuzzSweep)])
	}
	return c, agg, u, r, sweep
}

// sumToZero reports whether err is the reference's failure on a tier of
// usable weights that sums to 0, where the plan scores instead.
func sumToZero(err error) bool {
	return err != nil && strings.Contains(err.Error(), "weights sum to zero")
}

// floatBits lists the bits of every float64 reachable from v.
func floatBits(v reflect.Value, out []uint64) []uint64 {
	switch v.Kind() {
	case reflect.Float64:
		out = append(out, math.Float64bits(v.Float()))
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			out = floatBits(v.Field(i), out)
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			out = floatBits(v.Index(i), out)
		}
	}
	return out
}

// sameResult fails unless got and want are the same error, or have the
// same float64 bits and the same JSON encoding.
func sameResult(t *testing.T, what string, got any, gotErr error, want any, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("%s: error %v, reference %v", what, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	gb, wb := floatBits(reflect.ValueOf(got), nil), floatBits(reflect.ValueOf(want), nil)
	for i := 0; i < len(gb) || i < len(wb); i++ {
		if i >= len(gb) || i >= len(wb) || gb[i] != wb[i] {
			t.Fatalf("%s: %d floats, reference %d; they first differ at float %d", what, len(gb), len(wb), i)
		}
	}
	gj, gerr := json.Marshal(got)
	wj, werr := json.Marshal(want)
	if string(gj) != string(wj) || fmt.Sprint(gerr) != fmt.Sprint(werr) {
		t.Fatalf("%s:\n got %s (%v)\nwant %s (%v)", what, gj, gerr, wj, werr)
	}
}

// FuzzScoreMatchesReference: on any decoded config and aggregates,
// ScoreAggregates and the three sensitivity analyses return what the
// reference returns, bit for bit, except where the reference fails with
// "weights sum to zero"; there ScoreAggregates scores or returns
// ErrNoUsableData. The corpus (testdata/fuzz) holds one-dataset configs,
// whose leave-one-out has no rows, sweeps through values band validation
// rejects, and aggregates on which the reference fails.
func FuzzScoreMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		c, agg, u, r, sweep := decodeScoreCase(data)
		if err := refValidate(c); err != nil {
			t.Fatalf("decoded an invalid config: %v", err)
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("Validate: %v", err)
		}

		s, err := c.ScoreAggregates(agg)
		ws, werr := refScoreAggregates(c, agg)
		if sumToZero(werr) {
			if err != nil && !errors.Is(err, ErrNoUsableData) {
				t.Fatalf("ScoreAggregates: %v where the reference sums weights to zero", err)
			}
		} else {
			sameResult(t, "ScoreAggregates", s, err, ws, werr)
		}

		type leaveOneOut struct {
			Full Score
			Outs []LeaveOneOut
		}
		full, outs, err := c.LeaveOneOutAnalysis(agg)
		wfull, wouts, werr := refLeaveOneOut(c, agg)
		if !sumToZero(werr) {
			sameResult(t, "LeaveOneOutAnalysis", leaveOneOut{full, outs}, err, leaveOneOut{wfull, wouts}, werr)
		}

		perts, err := c.WeightSensitivity(agg)
		wperts, werr := refWeightSensitivity(c, agg)
		if !sumToZero(werr) {
			sameResult(t, "WeightSensitivity", perts, err, wperts, werr)
		}

		points, err := c.ThresholdSweep(agg, u, r, sweep)
		wpoints, werr := refThresholdSweep(c, agg, u, r, sweep)
		if !sumToZero(werr) {
			sameResult(t, fmt.Sprintf("ThresholdSweep %v/%v over %v", u, r, sweep), points, err, wpoints, werr)
		}
	})
}
