package iqb

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"iqb/internal/units"
)

func TestUseCaseStrings(t *testing.T) {
	if len(AllUseCases()) != 6 {
		t.Fatalf("paper defines six use cases, got %d", len(AllUseCases()))
	}
	for _, u := range AllUseCases() {
		if u.String() == "" || u.Title() == "" {
			t.Errorf("use case %d has empty name", int(u))
		}
		back, err := ParseUseCase(u.String())
		if err != nil || back != u {
			t.Errorf("round trip %v failed", u)
		}
	}
	if _, err := ParseUseCase("doomscrolling"); err == nil {
		t.Error("unknown use case should error")
	}
	if UseCase(17).String() == "" || UseCase(17).Title() == "" {
		t.Error("unknown use case should still format")
	}
}

func TestRequirementDirections(t *testing.T) {
	if RequirementDirection(Download) != units.HigherBetter ||
		RequirementDirection(Upload) != units.HigherBetter {
		t.Error("throughput must be higher-better")
	}
	if RequirementDirection(Latency) != units.LowerBetter ||
		RequirementDirection(Loss) != units.LowerBetter {
		t.Error("latency and loss must be lower-better")
	}
	for _, r := range AllRequirements() {
		if RequirementUnit(r) == "" {
			t.Errorf("requirement %v has no unit", r)
		}
	}
	if RequirementUnit(Requirement(42)) != "" {
		t.Error("unknown requirement should have empty unit")
	}
}

// TestTable1Exact pins the published Table 1 cell by cell. This is the
// paper's only fully published numeric artifact and must match exactly.
func TestTable1Exact(t *testing.T) {
	want := map[UseCase][4]Weight{
		WebBrowsing:       {3, 2, 4, 4},
		VideoStreaming:    {4, 2, 4, 4},
		AudioStreaming:    {4, 1, 3, 4},
		VideoConferencing: {4, 4, 4, 4},
		OnlineBackup:      {4, 4, 2, 4},
		Gaming:            {4, 4, 5, 4},
	}
	got := Table1Weights()
	order := []Requirement{Download, Upload, Latency, Loss}
	for u, row := range want {
		for i, r := range order {
			if got[u][r] != row[i] {
				t.Errorf("Table 1 %v/%v = %d, want %d", u, r, got[u][r], row[i])
			}
		}
	}
	if len(got) != 6 {
		t.Errorf("Table 1 has %d rows, want 6", len(got))
	}
}

// TestWeightNormalization: on data usable everywhere, every tier's
// normalized weights of the default config lie in [0, 1] and sum to 1.
func TestWeightNormalization(t *testing.T) {
	s, err := DefaultConfig().ScoreAggregates(allPass())
	if err != nil {
		t.Fatal(err)
	}
	ucSum := 0.0
	for _, uc := range s.UseCases {
		ucSum += uc.NormWeight
		sum := 0.0
		for _, rs := range uc.Requirements {
			if rs.NormWeight < 0 || rs.NormWeight > 1 {
				t.Errorf("%v: normalized weight %v out of [0,1]", uc.UseCase, rs.NormWeight)
			}
			sum += rs.NormWeight
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Errorf("%v: normalized weights sum to %v", uc.UseCase, sum)
		}
	}
	if math.Abs(ucSum-1) > 1e-12 {
		t.Errorf("use-case weights sum to %v", ucSum)
	}
	// Gaming latency (5) must be the single largest normalized weight in
	// its row.
	gaming, _ := s.UseCaseByName(Gaming)
	lat := gaming.Requirements[Latency].NormWeight
	for _, rs := range gaming.Requirements {
		if rs.Requirement != Latency && rs.NormWeight >= lat {
			t.Errorf("gaming: %v weight %v >= latency %v", rs.Requirement, rs.NormWeight, lat)
		}
	}
}

// Property: a use case's requirement weights validate exactly when they
// sum above 0, and then normalize to 1.
func TestNormalizationProperty(t *testing.T) {
	f := func(a, b, c, d uint8) bool {
		cfg := DefaultConfig()
		ws := map[Requirement]Weight{
			Download: Weight(a % 6), Upload: Weight(b % 6),
			Latency: Weight(c % 6), Loss: Weight(d % 6),
		}
		cfg.RequirementWeights[Gaming] = ws
		s, err := cfg.ScoreAggregates(allPass())
		if ws[Download]+ws[Upload]+ws[Latency]+ws[Loss] == 0 {
			return err != nil
		}
		if err != nil {
			return false
		}
		gaming, _ := s.UseCaseByName(Gaming)
		sum := 0.0
		for _, rs := range gaming.Requirements {
			sum += rs.NormWeight
		}
		return math.Abs(sum-1) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNormalizationErrors(t *testing.T) {
	c := DefaultConfig()
	c.UseCaseWeights = UseCaseWeights{WebBrowsing: 0}
	if err := c.Validate(); err == nil || err.Error() != "iqb: weights sum to zero" {
		t.Errorf("all-zero use-case weights: err = %v", err)
	}
	c = DefaultConfig()
	c.UseCaseWeights[Gaming] = 9
	if err := c.Validate(); err == nil || err.Error() != "iqb: weight 9 out of [0,5]" {
		t.Errorf("use-case weight above 5: err = %v", err)
	}
}

func TestDefaultThresholdsValid(t *testing.T) {
	if err := DefaultThresholds().Validate(); err != nil {
		t.Fatal(err)
	}
	// Spot checks against the documented substitution table.
	th := DefaultThresholds()
	if th[Gaming][Latency].High != 30 || th[Gaming][Latency].Minimum != 100 {
		t.Errorf("gaming latency band = %+v", th[Gaming][Latency])
	}
	if th[OnlineBackup][Upload].High != 50 {
		t.Errorf("backup upload high = %v", th[OnlineBackup][Upload].High)
	}
	// Gaming has the strictest high-quality latency bar of all use cases.
	for _, u := range AllUseCases() {
		if u != Gaming && th[u][Latency].High <= th[Gaming][Latency].High {
			t.Errorf("%v latency high %v <= gaming %v", u, th[u][Latency].High, th[Gaming][Latency].High)
		}
	}
}

func TestThresholdsValidateRejects(t *testing.T) {
	missingUC := Thresholds{}
	if err := missingUC.Validate(); err == nil {
		t.Error("empty thresholds should be invalid")
	}
	th := DefaultThresholds()
	delete(th[Gaming], Loss)
	if err := th.Validate(); err == nil {
		t.Error("missing cell should be invalid")
	}
	th = DefaultThresholds()
	th[Gaming][Download] = Band{Minimum: 50, High: 10} // inverted for higher-better
	if err := th.Validate(); err == nil {
		t.Error("inverted throughput band should be invalid")
	}
	th = DefaultThresholds()
	th[Gaming][Latency] = Band{Minimum: 30, High: 100} // inverted for lower-better
	if err := th.Validate(); err == nil {
		t.Error("inverted latency band should be invalid")
	}
	th = DefaultThresholds()
	th[Gaming][Loss] = Band{Minimum: 2.5, High: 0.5} // percent, not fraction
	if err := th.Validate(); err == nil {
		t.Error("loss thresholds above 1 should be invalid")
	}
	th = DefaultThresholds()
	th[Gaming][Download] = Band{Minimum: -1, High: 10}
	if err := th.Validate(); err == nil {
		t.Error("negative threshold should be invalid")
	}
}

// TestThresholdMeets: a cell meets its bar at the configured quality
// level, inclusively, in the requirement's direction.
func TestThresholdMeets(t *testing.T) {
	// Gaming's latency bars are 30 ms (high) and 100 ms (minimum), its
	// download bars 50 and 10 Mbit/s.
	for _, tc := range []struct {
		r     Requirement
		value float64
		q     QualityLevel
		want  bool
	}{
		{Latency, 25, HighQuality, true},
		{Latency, 30, HighQuality, true},
		{Latency, 31, HighQuality, false},
		{Latency, 90, MinimumQuality, true},
		{Latency, 101, MinimumQuality, false},
		{Download, 49, HighQuality, false},
		{Download, 50, HighQuality, true},
		{Download, 10, MinimumQuality, true},
	} {
		agg := allPass()
		agg.Set(DatasetNDT, tc.r, tc.value, 100)
		c := DefaultConfig()
		c.Quality = tc.q
		s, err := c.ScoreAggregates(agg)
		if err != nil {
			t.Fatal(err)
		}
		// Datasets come in name order: cloudflare, ndt, ookla.
		gaming, _ := s.UseCaseByName(Gaming)
		if cell := gaming.Requirements[tc.r].Datasets[1]; cell.Dataset != DatasetNDT || cell.Met != tc.want {
			t.Errorf("gaming %v %v at %v: %s met %v, want ndt met %v", tc.r, tc.value, tc.q, cell.Dataset, cell.Met, tc.want)
		}
	}
}

func TestQualityLevelString(t *testing.T) {
	if MinimumQuality.String() != "minimum" || HighQuality.String() != "high" {
		t.Error("quality level strings")
	}
	if QualityLevel(7).String() == "" {
		t.Error("unknown level should still format")
	}
	b := Band{Minimum: 1, High: 2}
	if b.At(MinimumQuality) != 1 || b.At(HighQuality) != 2 {
		t.Error("Band.At")
	}
}

func TestDefaultDatasets(t *testing.T) {
	ds := DefaultDatasets()
	if len(ds) != 3 {
		t.Fatalf("want 3 datasets, got %d", len(ds))
	}
	byName := map[string]DatasetInfo{}
	for _, d := range ds {
		byName[d.Name] = d
	}
	// NDT and Cloudflare measure everything; Ookla lacks loss.
	for _, name := range []string{DatasetNDT, DatasetCloudflare} {
		for _, r := range AllRequirements() {
			if !byName[name].Measures(r) {
				t.Errorf("%s should measure %v", name, r)
			}
		}
	}
	if byName[DatasetOokla].Measures(Loss) {
		t.Error("ookla must not measure loss")
	}
	if !byName[DatasetOokla].Measures(Download) {
		t.Error("ookla should measure download")
	}
	if err := validateDatasets(ds); err != nil {
		t.Error(err)
	}
}

func TestValidateDatasetsRejects(t *testing.T) {
	if err := validateDatasets(nil); err == nil {
		t.Error("empty registry should error")
	}
	if err := validateDatasets([]DatasetInfo{{Name: ""}}); err == nil {
		t.Error("empty name should error")
	}
	two := []DatasetInfo{
		{Name: "x", Capabilities: []Requirement{Download}},
		{Name: "x", Capabilities: []Requirement{Download}},
	}
	if err := validateDatasets(two); err == nil {
		t.Error("duplicate name should error")
	}
	if err := validateDatasets([]DatasetInfo{{Name: "x"}}); err == nil {
		t.Error("no capabilities should error")
	}
	bad := []DatasetInfo{{Name: "x", Capabilities: []Requirement{Requirement(99)}}}
	if err := validateDatasets(bad); err == nil {
		t.Error("unknown capability should error")
	}
}

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidateRejects(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*Config)
	}{
		{"bad percentile", func(c *Config) { c.Percentile = 100 }},
		{"zero percentile", func(c *Config) { c.Percentile = 0 }},
		{"bad quality", func(c *Config) { c.Quality = QualityLevel(5) }},
		{"bad convention", func(c *Config) { c.Convention = Convention(5) }},
		{"bad min samples", func(c *Config) { c.MinSamples = 0 }},
		{"no use case weights", func(c *Config) { c.UseCaseWeights = UseCaseWeights{} }},
		{"unknown use case", func(c *Config) { c.UseCaseWeights[UseCase(99)] = 1 }},
		{"missing req weights", func(c *Config) { delete(c.RequirementWeights, Gaming) }},
		{"missing req cell", func(c *Config) { delete(c.RequirementWeights[Gaming], Loss) }},
		{"oversized weight", func(c *Config) { c.RequirementWeights[Gaming][Loss] = 9 }},
		{"missing ds weights", func(c *Config) { delete(c.DatasetWeights, Gaming) }},
		{"missing ds cell", func(c *Config) { delete(c.DatasetWeights[Gaming], Loss) }},
		{"ds weight out of range", func(c *Config) { c.DatasetWeights[Gaming][Loss][DatasetNDT] = 7 }},
		{"unregistered ds", func(c *Config) { c.DatasetWeights[Gaming][Loss]["mystery"] = 1 }},
		{"incapable ds", func(c *Config) { c.DatasetWeights[Gaming][Loss][DatasetOokla] = 1 }},
		{"unregistered ds out of range", func(c *Config) { c.DatasetWeights[Gaming][Loss]["mystery"] = 8 }},
		{"no datasets", func(c *Config) { c.Datasets = nil }},
		{"zero req weights", func(c *Config) {
			c.RequirementWeights[Gaming] = map[Requirement]Weight{Download: 0, Upload: 0, Latency: 0, Loss: 0}
		}},
		{"unknown requirement out of range", func(c *Config) { c.RequirementWeights[Gaming][Requirement(9)] = 7 }},
		{"use case weight out of range", func(c *Config) { c.UseCaseWeights[Gaming] = 6 }},
	}
	for _, m := range mutations {
		c := DefaultConfig()
		m.mut(&c)
		err := c.Validate()
		if err == nil {
			t.Errorf("%s: config should be invalid", m.name)
			continue
		}
		// Each mutation makes one fault, so the reference's answer does not
		// depend on its map iteration order.
		if want := refValidate(c); err.Error() != want.Error() {
			t.Errorf("%s: %v, want %v", m.name, err, want)
		}
	}
}

func TestEffectivePercentile(t *testing.T) {
	c := DefaultConfig()
	// MirrorTail: throughput uses the 5th percentile, latency/loss the 95th.
	if got := c.effectivePercentile(Download); got != 5 {
		t.Errorf("mirror download percentile = %v, want 5", got)
	}
	if got := c.effectivePercentile(Loss); got != 95 {
		t.Errorf("mirror loss percentile = %v, want 95", got)
	}
	c.Convention = SameTail
	if got := c.effectivePercentile(Download); got != 95 {
		t.Errorf("same-tail download percentile = %v, want 95", got)
	}
}

// allPass returns aggregates where every dataset reports values that meet
// every high-quality bar.
func allPass() *Aggregates {
	agg := NewAggregates()
	for _, d := range DefaultDatasets() {
		for _, r := range d.Capabilities {
			var v float64
			switch r {
			case Download:
				v = 500
			case Upload:
				v = 100
			case Latency:
				v = 15
			case Loss:
				v = 0.001
			}
			agg.Set(d.Name, r, v, 100)
		}
	}
	return agg
}

// allFail returns aggregates that miss every bar.
func allFail() *Aggregates {
	agg := NewAggregates()
	for _, d := range DefaultDatasets() {
		for _, r := range d.Capabilities {
			var v float64
			switch r {
			case Download, Upload:
				v = 0.1
			case Latency:
				v = 900
			case Loss:
				v = 0.2
			}
			agg.Set(d.Name, r, v, 100)
		}
	}
	return agg
}

func TestScoreExtremes(t *testing.T) {
	c := DefaultConfig()
	s, err := c.ScoreAggregates(allPass())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.IQB-1) > 1e-12 {
		t.Errorf("all-pass IQB = %v, want 1", s.IQB)
	}
	if s.Grade != GradeA {
		t.Errorf("all-pass grade = %v", s.Grade)
	}
	if s.Coverage != 1 {
		t.Errorf("coverage = %v, want 1", s.Coverage)
	}
	s, err = c.ScoreAggregates(allFail())
	if err != nil {
		t.Fatal(err)
	}
	if s.IQB != 0 {
		t.Errorf("all-fail IQB = %v, want 0", s.IQB)
	}
	if s.Grade != GradeE {
		t.Errorf("all-fail grade = %v", s.Grade)
	}
}

// TestScoreHandComputed verifies equations 1-5 against a worked example:
// every cell passes except Ookla's download, which fails everywhere.
//
// For each use case u: S(u,download) = 2/3 (NDT and Cloudflare pass with
// equal weights; Ookla fails), every other requirement scores 1.
// With Table 1 weights this gives, per use case,
// S(u) = (w_down·2/3 + rest) / Σw, and the IQB score is their equal-
// weight mean = 0.909954 (six-case average; see the derivation in the
// assertions below).
func TestScoreHandComputed(t *testing.T) {
	agg := allPass()
	agg.Set(DatasetOokla, Download, 0.1, 100) // fails every download bar

	c := DefaultConfig()
	s, err := c.ScoreAggregates(agg)
	if err != nil {
		t.Fatal(err)
	}
	wantPerUC := map[UseCase]float64{
		WebBrowsing:       (3.0*2/3 + 10) / 13,
		VideoStreaming:    (4.0*2/3 + 10) / 14,
		AudioStreaming:    (4.0*2/3 + 8) / 12,
		VideoConferencing: (4.0*2/3 + 12) / 16,
		OnlineBackup:      (4.0*2/3 + 10) / 14,
		Gaming:            (4.0*2/3 + 13) / 17,
	}
	sum := 0.0
	for u, want := range wantPerUC {
		uc, ok := s.UseCaseByName(u)
		if !ok {
			t.Fatalf("missing use case %v", u)
		}
		if math.Abs(uc.Score-want) > 1e-12 {
			t.Errorf("S(%v) = %v, want %v", u, uc.Score, want)
		}
		sum += want
	}
	if want := sum / 6; math.Abs(s.IQB-want) > 1e-12 {
		t.Errorf("IQB = %v, want %v", s.IQB, want)
	}
	// And the agreement score itself: equation 1 with equal weights.
	uc, _ := s.UseCaseByName(Gaming)
	for _, rs := range uc.Requirements {
		if rs.Requirement == Download && math.Abs(rs.Agreement-2.0/3) > 1e-12 {
			t.Errorf("S(gaming,download) = %v, want 2/3", rs.Agreement)
		}
		if rs.Requirement == Loss && rs.Agreement != 1 {
			t.Errorf("S(gaming,loss) = %v, want 1 (two capable datasets agree)", rs.Agreement)
		}
	}
}

func TestScoreMissingDataRenormalizes(t *testing.T) {
	// Only NDT has data; everything passes. Weights renormalize to NDT
	// alone so the score is still 1.
	agg := NewAggregates()
	agg.Set(DatasetNDT, Download, 500, 100)
	agg.Set(DatasetNDT, Upload, 100, 100)
	agg.Set(DatasetNDT, Latency, 15, 100)
	agg.Set(DatasetNDT, Loss, 0.001, 100)
	c := DefaultConfig()
	s, err := c.ScoreAggregates(agg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.IQB-1) > 1e-12 {
		t.Errorf("single-dataset all-pass IQB = %v, want 1", s.IQB)
	}
	if s.Coverage >= 1 {
		t.Errorf("coverage should reflect missing cells, got %v", s.Coverage)
	}
}

func TestScoreMinSamples(t *testing.T) {
	agg := allPass()
	// Degrade NDT's loss cell to 3 samples; with MinSamples 10 it must be
	// ignored, leaving Cloudflare alone on loss (which passes anyway).
	agg.Set(DatasetNDT, Loss, 0.001, 3)
	c := DefaultConfig()
	s, err := c.ScoreAggregates(agg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.IQB-1) > 1e-12 {
		t.Errorf("IQB = %v, want 1", s.IQB)
	}
	uc, _ := s.UseCaseByName(Gaming)
	for _, rs := range uc.Requirements {
		if rs.Requirement != Loss {
			continue
		}
		for _, cell := range rs.Datasets {
			if cell.Dataset == DatasetNDT && !cell.Missing {
				t.Error("under-sampled NDT loss cell should be missing")
			}
			if cell.Dataset == DatasetCloudflare && math.Abs(cell.NormWeight-1) > 1e-12 {
				t.Errorf("cloudflare should carry full weight, got %v", cell.NormWeight)
			}
		}
	}
}

func TestScoreNoData(t *testing.T) {
	c := DefaultConfig()
	if _, err := c.ScoreAggregates(NewAggregates()); !errors.Is(err, ErrNoUsableData) {
		t.Errorf("want ErrNoUsableData, got %v", err)
	}
	if _, err := c.ScoreAggregates(nil); err == nil {
		t.Error("nil aggregates should error")
	}
	bad := c
	bad.Percentile = -1
	if _, err := bad.ScoreAggregates(allPass()); err == nil {
		t.Error("invalid config should error")
	}
}

// TestZeroWeightedUsableRequirements: a use case whose usable
// requirements all weigh 0 contributes nothing and is left out of the
// top tier, and a score with no positively weighted use case left is
// ErrNoUsableData, not a failure of a config that validates.
func TestZeroWeightedUsableRequirements(t *testing.T) {
	agg := NewAggregates()
	agg.Set(DatasetNDT, Upload, 100, 100)
	c := DefaultConfig()
	for _, u := range AllUseCases() {
		c.RequirementWeights[u][Upload] = 0
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ScoreAggregates(agg); !errors.Is(err, ErrNoUsableData) {
		t.Errorf("upload weighted 0 everywhere, only upload data: err = %v, want ErrNoUsableData", err)
	}
	// E7's step down of audio streaming's upload weight from 1 to 0 leaves
	// audio streaming out; the other five use cases pass on upload alone.
	c = DefaultConfig()
	c.RequirementWeights[AudioStreaming][Upload] = 0
	s, err := c.ScoreAggregates(agg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.IQB-1) > 1e-12 {
		t.Errorf("IQB = %v, want 1", s.IQB)
	}
	if audio, _ := s.UseCaseByName(AudioStreaming); audio.Score != 0 || audio.NormWeight != 0 {
		t.Errorf("audio streaming scores %v at weight %v, want 0 at 0", audio.Score, audio.NormWeight)
	}
	if _, err := DefaultConfig().WeightSensitivity(agg); err != nil {
		t.Errorf("WeightSensitivity on upload data alone: %v", err)
	}
}

// Property: improving any single aggregate in its better direction never
// lowers the IQB score (monotonicity of the composite).
func TestScoreMonotonicity(t *testing.T) {
	c := DefaultConfig()
	base := allPass()
	// Start from a mid-grade state: ookla fails download, ndt fails
	// latency.
	base.Set(DatasetOokla, Download, 1, 100)
	base.Set(DatasetNDT, Latency, 500, 100)
	s0, err := c.ScoreAggregates(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range DefaultDatasets() {
		for _, r := range d.Capabilities {
			improved := NewAggregates()
			for _, dd := range DefaultDatasets() {
				for _, rr := range dd.Capabilities {
					v, _ := base.Get(dd.Name, rr)
					improved.Set(dd.Name, rr, v, 100)
				}
			}
			v, _ := base.Get(d.Name, r)
			if RequirementDirection(r) == units.HigherBetter {
				improved.Set(d.Name, r, v*100+100, 100)
			} else {
				improved.Set(d.Name, r, v/100, 100)
			}
			s1, err := c.ScoreAggregates(improved)
			if err != nil {
				t.Fatal(err)
			}
			if s1.IQB < s0.IQB-1e-12 {
				t.Errorf("improving %s/%v lowered IQB from %v to %v", d.Name, r, s0.IQB, s1.IQB)
			}
		}
	}
}

func TestScoreQualityLevels(t *testing.T) {
	// Values between the minimum and high bars: passes minimum, fails high.
	agg := NewAggregates()
	for _, d := range DefaultDatasets() {
		for _, r := range d.Capabilities {
			var v float64
			switch r {
			case Download:
				v = 15 // above most minimums, below every high bar
			case Upload:
				v = 2
			case Latency:
				v = 90
			case Loss:
				v = 0.008
			}
			agg.Set(d.Name, r, v, 50)
		}
	}
	hi := DefaultConfig()
	lo := DefaultConfig()
	lo.Quality = MinimumQuality
	sHi, err := hi.ScoreAggregates(agg)
	if err != nil {
		t.Fatal(err)
	}
	sLo, err := lo.ScoreAggregates(agg)
	if err != nil {
		t.Fatal(err)
	}
	if sLo.IQB <= sHi.IQB {
		t.Errorf("minimum-quality score %v should exceed high-quality %v", sLo.IQB, sHi.IQB)
	}
}

func TestGrades(t *testing.T) {
	cases := []struct {
		score float64
		want  Grade
	}{
		{1, GradeA}, {0.95, GradeA}, {0.9, GradeA},
		{0.89, GradeB}, {0.75, GradeB},
		{0.74, GradeC}, {0.6, GradeC},
		{0.59, GradeD}, {0.4, GradeD},
		{0.39, GradeE}, {0, GradeE},
		{-0.5, GradeE}, {1.5, GradeA}, // clamped
	}
	for _, tc := range cases {
		if got := GradeOf(tc.score); got != tc.want {
			t.Errorf("GradeOf(%v) = %v, want %v", tc.score, got, tc.want)
		}
	}
	lo, hi, err := GradeB.Bounds()
	if err != nil || lo != 0.75 || hi != 0.9 {
		t.Errorf("GradeB bounds = %v, %v, %v", lo, hi, err)
	}
	if !GradeA.Valid() || Grade("Z").Valid() {
		t.Error("grade validity")
	}
}

func TestConfigJSONRoundTrip(t *testing.T) {
	c := DefaultConfig()
	c.Quality = MinimumQuality
	c.Convention = SameTail
	c.Percentile = 90
	var buf bytes.Buffer
	if err := c.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "\"gaming\"") {
		t.Error("JSON should use readable keys")
	}
	back, err := ReadConfigJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Percentile != 90 || back.Quality != MinimumQuality || back.Convention != SameTail {
		t.Errorf("scalar fields lost: %+v", back)
	}
	if back.RequirementWeights[Gaming][Latency] != 5 {
		t.Error("Table 1 weight lost in round trip")
	}
	if back.Thresholds[Gaming][Latency].High != 30 {
		t.Error("threshold lost in round trip")
	}
	found := false
	for _, d := range back.Datasets {
		if d.Name == DatasetOokla && !d.Measures(Loss) && d.Measures(Download) {
			found = true
		}
	}
	if !found {
		t.Error("dataset capabilities lost in round trip")
	}
}

func TestReadConfigJSONErrors(t *testing.T) {
	cases := []string{
		"{not json",
		`{"quality":"superb"}`,
		`{"convention":"weird"}`,
		`{"use_case_weights":{"doomscrolling":1}}`,
		`{"requirement_weights":{"gaming":{"vibes":1}}}`,
		`{"thresholds":{"nope":{}}}`,
		`{"datasets":[{"name":"x","capabilities":["vibes"]}]}`,
		`{}`, // valid JSON but fails validation
	}
	for _, in := range cases {
		if _, err := ReadConfigJSON(strings.NewReader(in)); err == nil {
			t.Errorf("config %q should fail", in)
		}
	}
}

func TestLeaveOneOut(t *testing.T) {
	agg := allPass()
	agg.Set(DatasetOokla, Download, 0.1, 100) // the dissenter
	c := DefaultConfig()
	full, outs, err := c.LeaveOneOutAnalysis(agg)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 3 {
		t.Fatalf("want 3 leave-one-out rows, got %d", len(outs))
	}
	for _, o := range outs {
		if o.Dataset == DatasetOokla {
			// Removing the dissenter should raise the score to 1.
			if math.Abs(o.Score-1) > 1e-12 || o.Delta <= 0 {
				t.Errorf("without ookla: score %v delta %v", o.Score, o.Delta)
			}
		} else {
			// Removing an agreeing dataset moves the score down or not at
			// all (the dissenter gains relative weight).
			if o.Delta > 1e-12 {
				t.Errorf("without %s: delta %v should be <= 0", o.Dataset, o.Delta)
			}
		}
	}
	if full.IQB >= 1 {
		t.Error("full score should be below 1 with a dissenter")
	}
}

// TestLeaveOneOutOneDataset: removing the only dataset leaves no usable
// data, so the analysis returns the full score and no rows.
func TestLeaveOneOutOneDataset(t *testing.T) {
	c := DefaultConfig()
	c.Datasets = slices.DeleteFunc(c.Datasets, func(d DatasetInfo) bool { return d.Name != DatasetNDT })
	c.DatasetWeights = EqualDatasetWeights(c.Datasets)
	agg := allPass()
	want, err := c.ScoreAggregates(agg)
	if err != nil {
		t.Fatal(err)
	}
	full, outs, err := c.LeaveOneOutAnalysis(agg)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 0 {
		t.Fatalf("leave-one-out rows = %+v, want none", outs)
	}
	if !reflect.DeepEqual(full, want) {
		t.Fatalf("full score = %+v, want %+v", full, want)
	}
}

func TestWeightSensitivity(t *testing.T) {
	agg := allPass()
	agg.Set(DatasetOokla, Download, 0.1, 100)
	c := DefaultConfig()
	perts, err := c.WeightSensitivity(agg)
	if err != nil {
		t.Fatal(err)
	}
	if len(perts) != 24 { // 6 use cases x 4 requirements
		t.Fatalf("want 24 perturbations, got %d", len(perts))
	}
	// Sorted by range descending.
	for i := 1; i < len(perts); i++ {
		if perts[i].Range > perts[i-1].Range+1e-15 {
			t.Error("perturbations not sorted by range")
		}
	}
	// Download weights are the sensitive ones here (only download has a
	// dissenting dataset); the top perturbation must be a download cell.
	if perts[0].Requirement != Download.String() {
		t.Errorf("most sensitive cell = %s/%s, want a download cell", perts[0].UseCaseName, perts[0].Requirement)
	}
	// On uniform all-pass data the score is 1 regardless of weights.
	flat, err := c.WeightSensitivity(allPass())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range flat {
		if p.Range > 1e-12 { // allow float rounding in the re-normalization
			t.Errorf("all-pass perturbation range = %v, want ~0", p.Range)
		}
	}
}

func TestThresholdSweep(t *testing.T) {
	// NDT latency aggregate at 40 ms: gaming high bar sweeps across it.
	agg := allPass()
	agg.Set(DatasetNDT, Latency, 40, 100)
	agg.Set(DatasetCloudflare, Latency, 40, 100)
	agg.Set(DatasetOokla, Latency, 40, 100)
	c := DefaultConfig()
	points, err := c.ThresholdSweep(agg, Gaming, Latency, []float64{20, 30, 39, 41, 60, 200})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 6 {
		t.Fatalf("want 6 points, got %d", len(points))
	}
	// Score is monotone non-decreasing in a lower-better threshold.
	for i := 1; i < len(points); i++ {
		if points[i].Score < points[i-1].Score-1e-12 {
			t.Errorf("sweep not monotone at %v", points[i].Threshold)
		}
	}
	// The crossover happens between 39 and 41.
	if points[2].Score >= points[3].Score {
		t.Error("crossing the aggregate should raise the score")
	}
	if _, err := c.ThresholdSweep(agg, Gaming, Latency, nil); err == nil {
		t.Error("empty sweep should error")
	}
}

func TestThresholdSweepMinimumQuality(t *testing.T) {
	agg := allPass()
	agg.Set(DatasetNDT, Download, 8, 100)
	agg.Set(DatasetCloudflare, Download, 8, 100)
	agg.Set(DatasetOokla, Download, 8, 100)
	c := DefaultConfig()
	c.Quality = MinimumQuality
	points, err := c.ThresholdSweep(agg, VideoStreaming, Download, []float64{5, 7.9, 8.1, 20})
	if err != nil {
		t.Fatal(err)
	}
	// Higher-better threshold: score is monotone non-increasing.
	for i := 1; i < len(points); i++ {
		if points[i].Score > points[i-1].Score+1e-12 {
			t.Errorf("sweep not monotone at %v", points[i].Threshold)
		}
	}
}

func TestAggregatesAccessors(t *testing.T) {
	agg := NewAggregates()
	if _, ok := agg.Get("ndt", Download); ok {
		t.Error("empty aggregates should have nothing")
	}
	if agg.Samples("ndt", Download) != 0 {
		t.Error("empty samples should be 0")
	}
	agg.Set("ndt", Download, 42, 7)
	if v, ok := agg.Get("ndt", Download); !ok || v != 42 {
		t.Errorf("Get = %v, %v", v, ok)
	}
	if agg.Samples("ndt", Download) != 7 {
		t.Error("samples lost")
	}
}
