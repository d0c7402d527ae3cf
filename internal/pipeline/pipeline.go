// Package pipeline orchestrates the full IQB data path end to end:
// synthesize a geography and subscriber population, schedule measurement
// tests over a time window with diurnal load, run the three measurement
// systems (NDT-style, Cloudflare-style, Ookla-style) for each scheduled
// test, collect the records into a store — Ookla via its aggregate
// publisher — and score every region with the IQB framework.
//
// Execution is deterministic for a fixed Spec: every job derives its own
// random stream from the spec seed, and Run and RunStreaming share one
// fan-out whose workers simulate fixed chunks of the job schedule in
// parallel while one committer hands each chunk's records to the sink
// in schedule order, then the Ookla aggregates. The sink therefore sees
// the same batches in the same order for any Workers value: Run's store
// holds its records in one order, a durable store's WAL and snapshot
// bytes depend on the seed alone, and ScoreAll output is bit-identical.
package pipeline

import (
	"cmp"
	"context"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"iqb/internal/dataset"
	"iqb/internal/geo"
	"iqb/internal/iqb"
	"iqb/internal/netem"
	"iqb/internal/ookla"
	"iqb/internal/rng"
)

// Spec configures a pipeline run.
type Spec struct {
	// Geo shapes the synthetic country.
	Geo geo.SynthSpec
	// Seed drives all randomness.
	Seed uint64
	// Start is the beginning of the measurement window.
	Start time.Time
	// Days is the window length in days.
	Days int
	// TestsPerCounty is the approximate number of tests per county per
	// dataset over the window.
	TestsPerCounty int
	// ISPQualitySpread draws a per-ISP quality multiplier in
	// [1-spread, 1+spread], modelling investment differences.
	ISPQualitySpread float64
	// Workers bounds concurrent test execution; 0 means GOMAXPROCS.
	Workers int
	// OoklaMinGroup is the publisher's suppression threshold.
	OoklaMinGroup int
	// Store, when non-nil, receives the run's records instead of a
	// fresh in-memory store. iqbserver passes a WAL-backed store here
	// so ingestion is durable from the first batch; the store must be
	// empty, since records are added, never replaced.
	Store *dataset.Store
}

// DefaultSpec returns a laptop-scale run: the default geography, one
// week, 120 tests per county per dataset.
func DefaultSpec() Spec {
	return Spec{
		Geo:              geo.DefaultSynthSpec(),
		Seed:             42,
		Start:            time.Date(2025, 6, 2, 0, 0, 0, 0, time.UTC),
		Days:             7,
		TestsPerCounty:   120,
		ISPQualitySpread: 0.25,
		OoklaMinGroup:    5,
	}
}

// Validate checks the spec.
func (s Spec) Validate() error {
	if s.Days < 1 {
		return fmt.Errorf("pipeline: days %d must be >= 1", s.Days)
	}
	if s.TestsPerCounty < 1 {
		return fmt.Errorf("pipeline: tests per county %d must be >= 1", s.TestsPerCounty)
	}
	if s.Start.IsZero() {
		return fmt.Errorf("pipeline: start time required")
	}
	if s.ISPQualitySpread < 0 || s.ISPQualitySpread >= 1 {
		return fmt.Errorf("pipeline: quality spread %v out of [0,1)", s.ISPQualitySpread)
	}
	return nil
}

// World is the synthesized ground truth: geography plus per-ISP quality.
type World struct {
	DB         *geo.DB
	Profiles   map[netem.Tech]netem.Profile
	ISPQuality map[uint32]float64
}

// BuildWorld synthesizes the geography and ISP qualities for a spec.
func BuildWorld(spec Spec) (*World, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	root := rng.New(spec.Seed)
	db, err := geo.Synthesize(spec.Geo, root.Fork("geo"))
	if err != nil {
		return nil, err
	}
	qsrc := root.Fork("isp-quality")
	quality := map[uint32]float64{}
	for _, isp := range db.ISPs() {
		quality[isp.ASN] = qsrc.Range(1-spec.ISPQualitySpread, 1+spec.ISPQualitySpread)
	}
	return &World{
		DB:         db,
		Profiles:   netem.DefaultProfiles(),
		ISPQuality: quality,
	}, nil
}

// Subscriber is one synthetic household: a region, an ISP, a technology,
// and a concrete path.
type Subscriber struct {
	Region string
	ASN    uint32
	Tech   netem.Tech
	Path   netem.Path
}

// DrawSubscriber samples a subscriber in the given county: ISP by market
// share, technology by the county character's mix, and a concrete path
// from the technology profile scaled by the ISP's quality.
func (w *World) DrawSubscriber(county string, src *rng.Source) (Subscriber, error) {
	region, ok := w.DB.Region(county)
	if !ok {
		return Subscriber{}, fmt.Errorf("pipeline: unknown county %q", county)
	}
	market := w.DB.Market(county)
	if len(market) == 0 {
		return Subscriber{}, fmt.Errorf("pipeline: county %q has no market", county)
	}
	weights := make([]float64, len(market))
	for i, m := range market {
		weights[i] = m.Share
	}
	asn := market[src.Categorical(weights)].ASN

	mix := netem.DefaultMixFor(region.Character)
	tech := mix.Draw(src)
	path := netem.DrawPath(w.Profiles[tech], w.ISPQuality[asn], src)
	return Subscriber{Region: county, ASN: asn, Tech: tech, Path: path}, nil
}

// job is one scheduled test.
type job struct {
	id      int
	dataset string
	county  string
	at      time.Time
}

// Result carries everything a run produces.
type Result struct {
	World *World
	Store *dataset.Store
	// Counts tallies records per dataset name.
	Counts map[string]int
	// Elapsed is the wall time of the run.
	Elapsed time.Duration
}

// chunkJobs is how many consecutive jobs of the schedule one worker
// simulates as a unit, and the store receives as one batch (about
// two-thirds of them: Ookla jobs yield raw samples, not records).
// aheadChunks is how many simulated chunks may wait for the committer
// beyond the one each worker has in hand, bounding what a slow chunk
// holds back.
const (
	chunkJobs   = 256
	aheadChunks = 4
)

// Run executes the full pipeline into a record store, Spec.Store or a
// fresh one. For a fixed Spec.Seed the store receives the same batches
// in the same order whatever Spec.Workers is (see fanOut), so its
// records, and the WAL of a durable store, depend on the seed alone.
func Run(ctx context.Context, spec Spec) (*Result, error) {
	world, err := BuildWorld(spec)
	if err != nil {
		return nil, err
	}
	//iqbvet:ignore walltime Elapsed is wall-clock telemetry only; no simulation or scoring state depends on it
	started := time.Now()

	store := spec.Store
	if store == nil {
		store = dataset.NewStore()
	}
	if err := fanOut(ctx, world, spec, store.AddBatch); err != nil {
		return nil, err
	}
	return &Result{
		World:  world,
		Store:  store,
		Counts: store.DatasetCounts(),
		//iqbvet:ignore walltime Elapsed is wall-clock telemetry only; no simulation or scoring state depends on it
		Elapsed: time.Since(started),
	}, nil
}

// chunk is one chunkJobs run of the schedule and what simulating it
// produced. done closes once the rest is set.
type chunk struct {
	jobs []job
	recs []dataset.Record
	raws []ookla.RawSample
	err  error
	done chan struct{}
}

// simulate runs the chunk's jobs in order, stopping at the first error.
func (c *chunk) simulate(world *World, spec Spec) {
	defer close(c.done)
	for _, j := range c.jobs {
		rec, raw, err := produceRecord(world, spec, j)
		if err != nil {
			c.err = err
			return
		}
		if raw != nil {
			c.raws = append(c.raws, *raw)
		} else {
			c.recs = append(c.recs, rec)
		}
	}
}

// fanOut runs the spec's deterministic job schedule and hands every
// record to sink, the one step Run and RunStreaming differ in. The
// schedule is cut into chunks of chunkJobs consecutive jobs, which
// Spec.Workers workers simulate in parallel, claiming them in schedule
// order. The calling goroutine is the one committer: it waits for each
// chunk in schedule order, queues its raw Ookla samples on the
// publisher and passes its records to sink as one batch (an empty chunk
// makes no call). Workers run at most aheadChunks chunks past the
// committer. After the last chunk the publisher's aggregates go to sink
// as the final batch. sink is never called concurrently and must not
// keep the slice. The first error in schedule order, or ctx's
// cancellation, stops the run; the chunks not yet claimed stay unrun.
//
// Nothing sink sees depends on Workers: every job derives its own
// random stream from its job ID, and the batches and their order are
// the schedule's.
func fanOut(ctx context.Context, world *World, spec Spec, sink func([]dataset.Record) error) error {
	// Deterministic job list: per county, per dataset, a Poisson-ish
	// schedule of tests across the window, biased toward evening hours
	// because measurement volume follows usage.
	jobs := buildJobs(world, spec)
	chunks := make([]chunk, (len(jobs)+chunkJobs-1)/chunkJobs)
	for i := range chunks {
		chunks[i] = chunk{jobs: jobs[i*chunkJobs : min((i+1)*chunkJobs, len(jobs))], done: make(chan struct{})}
	}

	workers := spec.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// A worker takes a window slot before claiming the next chunk and
	// the committer frees it once that chunk is committed, so claims
	// stay within workers+aheadChunks of the commit point. Claims are in
	// order: when the committer waits on chunk i, chunk i is claimed or
	// a slot is free for it.
	window := make(chan struct{}, workers+aheadChunks)
	stop := make(chan struct{})
	var next atomic.Int64
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case window <- struct{}{}:
				case <-stop:
					return
				}
				i := int(next.Add(1)) - 1
				if i >= len(chunks) {
					return
				}
				chunks[i].simulate(world, spec)
			}
		}()
	}
	err := commit(ctx, chunks, window, spec.OoklaMinGroup, sink)
	close(stop)
	wg.Wait()
	return err
}

// commit is fanOut's committer: it sinks each chunk in order, then the
// Ookla aggregates.
func commit(ctx context.Context, chunks []chunk, window <-chan struct{}, minGroup int, sink func([]dataset.Record) error) error {
	publisher := ookla.NewPublisher()
	for i := range chunks {
		c := &chunks[i]
		select {
		case <-c.done:
		case <-ctx.Done():
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if c.err != nil {
			return c.err
		}
		for _, raw := range c.raws {
			if err := publisher.Add(raw); err != nil {
				return err
			}
		}
		if len(c.recs) > 0 {
			if err := sink(c.recs); err != nil {
				return err
			}
		}
		*c = chunk{}
		<-window
	}
	aggregates, err := publisher.Publish(minGroup)
	if err != nil {
		return fmt.Errorf("pipeline: publishing ookla aggregates: %w", err)
	}
	if err := sink(aggregates); err != nil {
		return fmt.Errorf("pipeline: storing ookla aggregates: %w", err)
	}
	return nil
}

// RegionScore pairs a region with its score.
type RegionScore struct {
	Region    string
	Character geo.Character
	Score     iqb.Score
}

// ScoreAll scores every county in the result plus each state and the
// country (hierarchical region prefixes pick up descendants' records).
func (r *Result) ScoreAll(cfg iqb.Config) (map[string]iqb.Score, error) {
	scores := map[string]iqb.Score{}
	for _, code := range r.World.DB.AllRegions() {
		s, err := cfg.ScoreRegion(r.Store, code, time.Time{}, time.Time{})
		if err != nil {
			return nil, fmt.Errorf("pipeline: scoring %s: %w", code, err)
		}
		scores[code] = s
	}
	return scores, nil
}

// RankCounties returns county scores sorted best-first.
func (r *Result) RankCounties(cfg iqb.Config) ([]RegionScore, error) {
	var out []RegionScore
	for _, code := range r.World.DB.Regions(geo.County) {
		s, err := cfg.ScoreRegion(r.Store, code, time.Time{}, time.Time{})
		if err != nil {
			return nil, fmt.Errorf("pipeline: scoring %s: %w", code, err)
		}
		region, _ := r.World.DB.Region(code)
		out = append(out, RegionScore{Region: code, Character: region.Character, Score: s})
	}
	// Score descending, then code: the codes are unique, so the order is
	// total and deterministic.
	slices.SortFunc(out, func(a, b RegionScore) int {
		return cmp.Or(cmp.Compare(b.Score.IQB, a.Score.IQB), strings.Compare(a.Region, b.Region))
	})
	return out, nil
}

// ISPScore pairs an ISP with its country-wide score and the simulation's
// ground-truth quality multiplier, enabling rank-recovery checks.
type ISPScore struct {
	ASN         uint32
	Name        string
	TrueQuality float64
	Score       iqb.Score
}

// RankISPs scores each ISP across the whole country, best first.
func (r *Result) RankISPs(cfg iqb.Config) ([]ISPScore, error) {
	var out []ISPScore
	for _, isp := range r.World.DB.ISPs() {
		s, err := cfg.ScoreFiltered(r.Store, dataset.Filter{ASN: isp.ASN})
		if err != nil {
			return nil, fmt.Errorf("pipeline: scoring AS%d: %w", isp.ASN, err)
		}
		out = append(out, ISPScore{
			ASN:         isp.ASN,
			Name:        isp.Name,
			TrueQuality: r.World.ISPQuality[isp.ASN],
			Score:       s,
		})
	}
	slices.SortFunc(out, func(a, b ISPScore) int {
		return cmp.Or(cmp.Compare(b.Score.IQB, a.Score.IQB), cmp.Compare(a.ASN, b.ASN))
	})
	return out, nil
}
