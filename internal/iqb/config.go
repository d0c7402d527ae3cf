package iqb

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"

	"iqb/internal/dataset"
	"iqb/internal/units"
)

// Convention selects how the configured percentile applies to
// higher-better requirements. The poster states "IQB uses the 95th
// percentile of a dataset to evaluate a metric" with a packet-loss
// example, where the 95th percentile being under the bar means 95% of
// tests meet it.
type Convention int

// Aggregation conventions.
const (
	// MirrorTail (default) preserves the "95% of tests meet the bar"
	// semantics for every requirement: lower-better metrics use the
	// configured percentile, higher-better metrics use its mirror
	// (100-p, i.e. the 5th percentile of throughput).
	MirrorTail Convention = iota
	// SameTail applies the configured percentile literally to every
	// requirement, which for throughput tests the best measurements.
	SameTail
)

// String names the convention.
func (c Convention) String() string {
	switch c {
	case MirrorTail:
		return "mirror-tail"
	case SameTail:
		return "same-tail"
	default:
		return fmt.Sprintf("Convention(%d)", int(c))
	}
}

// Config is the complete, serializable configuration of the IQB
// framework: the three weight tiers, the threshold table, the dataset
// registry, and the aggregation rules. The paper's conclusion emphasizes
// all of these are adaptable; the defaults reproduce the paper.
type Config struct {
	// UseCaseWeights is w(u); defaults to equal.
	UseCaseWeights UseCaseWeights `json:"use_case_weights"`
	// RequirementWeights is w(u,r); defaults to Table 1.
	RequirementWeights RequirementWeights `json:"requirement_weights"`
	// DatasetWeights is w(u,r,d); defaults to equal within capability.
	DatasetWeights DatasetWeights `json:"dataset_weights"`
	// Thresholds is the Fig. 2 table.
	Thresholds Thresholds `json:"thresholds"`
	// Datasets is the source registry with capability matrix.
	Datasets []DatasetInfo `json:"datasets"`
	// Quality selects which bar to score against. Default HighQuality.
	Quality QualityLevel `json:"quality"`
	// Percentile is the aggregation percentile (the paper's 95).
	Percentile float64 `json:"percentile"`
	// Convention maps the percentile onto higher-better requirements.
	Convention Convention `json:"convention"`
	// MinSamples is the smallest sample count from which an aggregate is
	// trusted; datasets below it are treated as missing for that cell.
	MinSamples int `json:"min_samples"`
}

// DefaultConfig reproduces the paper's published choices plus the
// documented substitutions for unpublished ones.
func DefaultConfig() Config {
	ds := DefaultDatasets()
	return Config{
		UseCaseWeights:     DefaultUseCaseWeights(),
		RequirementWeights: Table1Weights(),
		DatasetWeights:     EqualDatasetWeights(ds),
		Thresholds:         DefaultThresholds(),
		Datasets:           ds,
		Quality:            HighQuality,
		Percentile:         95,
		Convention:         MirrorTail,
		MinSamples:         10,
	}
}

// Validate checks the configuration is complete and internally
// consistent. It compiles the dense scoring layout every Config method
// scores with, and discards it, so every method that scores rejects
// exactly the configs Validate rejects.
func (c Config) Validate() error {
	_, err := c.compile()
	return err
}

// Hash returns a stable fingerprint of the configuration: two configs
// that would score identically hash identically. It is derived from the
// canonical JSON form (encoding/json sorts map keys), so it survives
// process restarts — cache keys built from it stay comparable across
// runs. The value is a truncated hex SHA-256.
func (c Config) Hash() (string, error) {
	var buf bytes.Buffer
	if err := c.WriteJSON(&buf); err != nil {
		return "", fmt.Errorf("iqb: hashing config: %w", err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:8]), nil
}

// effectivePercentile returns the percentile to use for requirement r
// under the configured convention.
func (c Config) effectivePercentile(r Requirement) float64 {
	if c.Convention == MirrorTail && RequirementDirection(r) == units.HigherBetter {
		return 100 - c.Percentile
	}
	return c.Percentile
}

// jsonConfig mirrors Config with string-keyed maps for stable JSON.
type jsonConfig struct {
	UseCaseWeights     map[string]Weight                       `json:"use_case_weights"`
	RequirementWeights map[string]map[string]Weight            `json:"requirement_weights"`
	DatasetWeights     map[string]map[string]map[string]Weight `json:"dataset_weights"`
	Thresholds         map[string]map[string]Band              `json:"thresholds"`
	Datasets           []jsonDatasetInfo                       `json:"datasets"`
	Quality            string                                  `json:"quality"`
	Percentile         float64                                 `json:"percentile"`
	Convention         string                                  `json:"convention"`
	MinSamples         int                                     `json:"min_samples"`
}

type jsonDatasetInfo struct {
	Name         string   `json:"name"`
	Capabilities []string `json:"capabilities"`
	Description  string   `json:"description,omitempty"`
}

// WriteJSON serializes the configuration with human-readable keys.
func (c Config) WriteJSON(w io.Writer) error {
	jc := jsonConfig{
		UseCaseWeights:     map[string]Weight{},
		RequirementWeights: map[string]map[string]Weight{},
		DatasetWeights:     map[string]map[string]map[string]Weight{},
		Thresholds:         map[string]map[string]Band{},
		Quality:            c.Quality.String(),
		Percentile:         c.Percentile,
		Convention:         c.Convention.String(),
		MinSamples:         c.MinSamples,
	}
	for u, w := range c.UseCaseWeights {
		jc.UseCaseWeights[u.String()] = w
	}
	for u, reqs := range c.RequirementWeights {
		m := map[string]Weight{}
		for r, w := range reqs {
			m[r.String()] = w
		}
		jc.RequirementWeights[u.String()] = m
	}
	for u, reqs := range c.DatasetWeights {
		m := map[string]map[string]Weight{}
		for r, cell := range reqs {
			inner := map[string]Weight{}
			for name, w := range cell {
				inner[name] = w
			}
			m[r.String()] = inner
		}
		jc.DatasetWeights[u.String()] = m
	}
	for u, reqs := range c.Thresholds {
		m := map[string]Band{}
		for r, b := range reqs {
			m[r.String()] = b
		}
		jc.Thresholds[u.String()] = m
	}
	for _, d := range c.Datasets {
		jd := jsonDatasetInfo{Name: d.Name, Description: d.Description}
		for _, r := range d.Capabilities {
			jd.Capabilities = append(jd.Capabilities, r.String())
		}
		jc.Datasets = append(jc.Datasets, jd)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(jc)
}

// ReadConfigJSON parses a configuration written by WriteJSON and
// validates it.
func ReadConfigJSON(r io.Reader) (Config, error) {
	var jc jsonConfig
	if err := json.NewDecoder(r).Decode(&jc); err != nil {
		return Config{}, fmt.Errorf("iqb: parsing config: %w", err)
	}
	c := Config{
		UseCaseWeights:     UseCaseWeights{},
		RequirementWeights: RequirementWeights{},
		DatasetWeights:     DatasetWeights{},
		Thresholds:         Thresholds{},
		Percentile:         jc.Percentile,
		MinSamples:         jc.MinSamples,
	}
	switch jc.Quality {
	case "minimum":
		c.Quality = MinimumQuality
	case "high", "":
		c.Quality = HighQuality
	default:
		return Config{}, fmt.Errorf("iqb: unknown quality %q", jc.Quality)
	}
	switch jc.Convention {
	case "mirror-tail", "":
		c.Convention = MirrorTail
	case "same-tail":
		c.Convention = SameTail
	default:
		return Config{}, fmt.Errorf("iqb: unknown convention %q", jc.Convention)
	}
	for name, w := range jc.UseCaseWeights {
		u, err := ParseUseCase(name)
		if err != nil {
			return Config{}, err
		}
		c.UseCaseWeights[u] = w
	}
	for name, reqs := range jc.RequirementWeights {
		u, err := ParseUseCase(name)
		if err != nil {
			return Config{}, err
		}
		m := map[Requirement]Weight{}
		for rn, w := range reqs {
			r, err := dataset.ParseMetric(rn)
			if err != nil {
				return Config{}, err
			}
			m[r] = w
		}
		c.RequirementWeights[u] = m
	}
	for name, reqs := range jc.DatasetWeights {
		u, err := ParseUseCase(name)
		if err != nil {
			return Config{}, err
		}
		m := map[Requirement]map[string]Weight{}
		for rn, cell := range reqs {
			r, err := dataset.ParseMetric(rn)
			if err != nil {
				return Config{}, err
			}
			inner := map[string]Weight{}
			for dn, w := range cell {
				inner[dn] = w
			}
			m[r] = inner
		}
		c.DatasetWeights[u] = m
	}
	for name, reqs := range jc.Thresholds {
		u, err := ParseUseCase(name)
		if err != nil {
			return Config{}, err
		}
		m := map[Requirement]Band{}
		for rn, b := range reqs {
			r, err := dataset.ParseMetric(rn)
			if err != nil {
				return Config{}, err
			}
			m[r] = b
		}
		c.Thresholds[u] = m
	}
	for _, jd := range jc.Datasets {
		d := DatasetInfo{Name: jd.Name, Description: jd.Description}
		for _, rn := range jd.Capabilities {
			r, err := dataset.ParseMetric(rn)
			if err != nil {
				return Config{}, err
			}
			d.Capabilities = append(d.Capabilities, r)
		}
		c.Datasets = append(c.Datasets, d)
	}
	if err := c.Validate(); err != nil {
		return Config{}, err
	}
	return c, nil
}
