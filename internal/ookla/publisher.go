package ookla

import (
	"fmt"
	"sort"
	"time"

	"iqb/internal/dataset"
	"iqb/internal/netem"
	"iqb/internal/rng"
	"iqb/internal/stats"
	"iqb/internal/tcpmodel"
	"iqb/internal/units"
)

// Simulate produces a raw multi-connection result for one subscriber
// without sockets: Flows parallel streams for the standard duration, and
// min-of-pings latency.
func Simulate(path netem.Path, rho float64, src *rng.Source) (TestResult, error) {
	down, err := tcpmodel.Run(path, tcpmodel.Config{
		Direction: tcpmodel.Download,
		Duration:  TestDuration,
		Flows:     Flows,
		Rho:       rho,
	}, src)
	if err != nil {
		return TestResult{}, fmt.Errorf("ookla: simulating download: %w", err)
	}
	up, err := tcpmodel.Run(path, tcpmodel.Config{
		Direction: tcpmodel.Upload,
		Duration:  TestDuration,
		Flows:     Flows,
		Rho:       rho,
	}, src)
	if err != nil {
		return TestResult{}, fmt.Errorf("ookla: simulating upload: %w", err)
	}
	return TestResult{
		DownloadMbps: down.Goodput.Mbps(),
		UploadMbps:   up.Goodput.Mbps(),
		LatencyMS:    minMilliseconds(tcpmodel.Ping(path, 10, rho, src)),
	}, nil
}

// minMilliseconds returns the smallest latency sample in milliseconds,
// initialized from the first sample rather than a zero sentinel — a
// legitimate 0 ms ping must win the min, not read as "unset". Returns 0
// for an empty slice.
func minMilliseconds(ls []units.Latency) float64 {
	minRTT := 0.0
	for i, l := range ls {
		ms := l.Milliseconds()
		if i == 0 || ms < minRTT {
			minRTT = ms
		}
	}
	return minRTT
}

// RawSample is one subscriber test tagged with its origin, queued for
// aggregation.
type RawSample struct {
	Region string
	ASN    uint32
	Time   time.Time
	Result TestResult
	// Seq optionally orders samples within an aggregation group. Publish
	// sums group statistics in ascending Seq order, so producers that tag
	// samples with a deterministic sequence (the pipeline uses its job
	// IDs) get bit-identical aggregates whatever order they add them in.
	// Untagged samples (Seq zero) keep their arrival order.
	Seq int
}

// Publisher accumulates raw samples and emits quarterly aggregate
// records — the only form in which "Ookla" data enters the IQB pipeline,
// mirroring the real open-data release (means per region, no loss).
type Publisher struct {
	samples []RawSample
}

// NewPublisher returns an empty publisher.
func NewPublisher() *Publisher { return &Publisher{} }

// Add queues a raw sample.
func (p *Publisher) Add(s RawSample) error {
	if s.Region == "" {
		return fmt.Errorf("ookla: sample missing region")
	}
	if s.Time.IsZero() {
		return fmt.Errorf("ookla: sample missing time")
	}
	p.samples = append(p.samples, s)
	return nil
}

// Len reports queued samples.
func (p *Publisher) Len() int { return len(p.samples) }

// quarterOf formats a time as "2025Q2".
func quarterOf(t time.Time) string {
	return fmt.Sprintf("%dQ%d", t.Year(), (int(t.Month())-1)/3+1)
}

// quarterStart returns the first instant of the sample's quarter, the
// timestamp aggregates are published under.
func quarterStart(t time.Time) time.Time {
	q := (int(t.Month()) - 1) / 3
	return time.Date(t.Year(), time.Month(q*3+1), 1, 0, 0, 0, 0, time.UTC)
}

// Publish groups the queued samples by (region, ASN, quarter) and emits
// one aggregate record per group: mean download, mean upload, median
// latency — and no loss column. Groups smaller than minSamples are
// suppressed, mirroring the k-anonymity suppression of public releases.
func (p *Publisher) Publish(minSamples int) ([]dataset.Record, error) {
	if minSamples < 1 {
		minSamples = 1
	}
	type key struct {
		region  string
		asn     uint32
		quarter string
	}
	groups := map[key][]RawSample{}
	for _, s := range p.samples {
		k := key{s.Region, s.ASN, quarterOf(s.Time)}
		groups[k] = append(groups[k], s)
	}
	keys := make([]key, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].region != keys[j].region {
			return keys[i].region < keys[j].region
		}
		if keys[i].asn != keys[j].asn {
			return keys[i].asn < keys[j].asn
		}
		return keys[i].quarter < keys[j].quarter
	})

	var out []dataset.Record
	for _, k := range keys {
		g := groups[k]
		if len(g) < minSamples {
			continue
		}
		// Deterministic aggregation order regardless of arrival order;
		// stable so untagged samples keep arrival order.
		sort.SliceStable(g, func(i, j int) bool { return g[i].Seq < g[j].Seq })
		downs := make([]float64, len(g))
		ups := make([]float64, len(g))
		lats := make([]float64, len(g))
		for i, s := range g {
			downs[i] = s.Result.DownloadMbps
			ups[i] = s.Result.UploadMbps
			lats[i] = s.Result.LatencyMS
		}
		meanDown, err := stats.Mean(downs)
		if err != nil {
			return nil, err
		}
		meanUp, _ := stats.Mean(ups)
		medLat, _ := stats.Median(lats)

		rec := dataset.NewRecord(
			fmt.Sprintf("%s/AS%d/%s", k.region, k.asn, k.quarter),
			"ookla", k.region, quarterStart(g[0].Time),
		)
		rec.ASN = k.asn
		rec.SetValue(dataset.Download, meanDown)
		rec.SetValue(dataset.Upload, meanUp)
		rec.SetValue(dataset.Latency, medLat)
		// Deliberately no loss: the public aggregate has no such column.
		if err := rec.Validate(); err != nil {
			return nil, fmt.Errorf("ookla: aggregate for %v: %w", k, err)
		}
		out = append(out, rec)
	}
	return out, nil
}
