package pipeline

import (
	"context"
	"fmt"
	"time"

	"iqb/internal/cfspeed"
	"iqb/internal/dataset"
	"iqb/internal/geo"
	"iqb/internal/iqb"
	"iqb/internal/ndt"
	"iqb/internal/netem"
	"iqb/internal/ookla"
	"iqb/internal/rng"
)

// StreamingResult is the memory-bounded counterpart of Result: records
// are folded into a Sketcher's cells at ingestion time and never
// retained.
type StreamingResult struct {
	World  *World
	Sketch *dataset.Sketcher
	// Ingested counts records folded per dataset name.
	Ingested map[string]int
	// Elapsed is the wall time of the run.
	Elapsed time.Duration
}

// RunStreaming executes the same workload as Run but keeps only the cell
// index — the mode a production deployment ingesting archives too large
// to hold would use. It shares Run's fan-out, so the job schedule,
// subscriber draws and simulated tests are identical for the same spec;
// only the sink differs: the committer folds each batch into one
// Sketcher instead of a Store. That sketcher holds exactly the cells a
// default-geometry Store would, so ScoreAll answers bit-identically to
// Result.ScoreAll, for any Workers value.
func RunStreaming(ctx context.Context, spec Spec) (*StreamingResult, error) {
	world, err := BuildWorld(spec)
	if err != nil {
		return nil, err
	}
	//iqbvet:ignore walltime Elapsed is wall-clock telemetry only; no simulation or scoring state depends on it
	started := time.Now()

	sketch := dataset.NewSketcher()
	ingested := map[string]int{}
	err = fanOut(ctx, world, spec, func(rs []dataset.Record) error {
		if err := sketch.Ingest(rs); err != nil {
			return err
		}
		for i := range rs {
			ingested[rs[i].Dataset]++
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &StreamingResult{
		World:    world,
		Sketch:   sketch,
		Ingested: ingested,
		//iqbvet:ignore walltime Elapsed is wall-clock telemetry only; no simulation or scoring state depends on it
		Elapsed: time.Since(started),
	}, nil
}

// buildJobs constructs the deterministic job schedule shared by Run and
// RunStreaming.
func buildJobs(world *World, spec Spec) []job {
	root := rng.New(spec.Seed)
	sched := root.Fork("schedule")
	window := time.Duration(spec.Days) * 24 * time.Hour
	var jobs []job
	id := 0
	for _, county := range world.DB.Regions(geo.County) {
		for _, ds := range []string{"ndt", "cloudflare", "ookla"} {
			n := sched.Poisson(float64(spec.TestsPerCounty))
			if n < 1 {
				n = 1
			}
			for i := 0; i < n; i++ {
				var at time.Time
				for {
					at = spec.Start.Add(time.Duration(sched.Float64() * float64(window)))
					hour := float64(at.Hour()) + float64(at.Minute())/60
					if sched.Bool(0.25 + netem.Diurnal(hour)) {
						break
					}
				}
				jobs = append(jobs, job{id: id, dataset: ds, county: county, at: at})
				id++
			}
		}
	}
	return jobs
}

// produceRecord runs one scheduled test and returns either a dataset
// record (ndt/cloudflare) or a raw ookla sample destined for the
// publisher.
func produceRecord(world *World, spec Spec, j job) (dataset.Record, *ookla.RawSample, error) {
	src := rng.New(spec.Seed).Fork(fmt.Sprintf("job-%d", j.id))
	sub, err := world.DrawSubscriber(j.county, src)
	if err != nil {
		return dataset.Record{}, nil, err
	}
	hour := float64(j.at.Hour()) + float64(j.at.Minute())/60
	rho := netem.Diurnal(hour) * src.Range(0.8, 1.2)
	if rho > 0.9 {
		rho = 0.9
	}
	switch j.dataset {
	case "ndt":
		res, err := ndt.Simulate(sub.Path, rho, src)
		if err != nil {
			return dataset.Record{}, nil, err
		}
		rec, err := res.ToRecord(fmt.Sprintf("ndt-%d", j.id), sub.Region, sub.ASN, sub.Tech.String(), j.at)
		return rec, nil, err
	case "cloudflare":
		res, err := cfspeed.Simulate(sub.Path, rho, src)
		if err != nil {
			return dataset.Record{}, nil, err
		}
		rec, err := res.ToRecord(fmt.Sprintf("cf-%d", j.id), sub.Region, sub.ASN, sub.Tech.String(), j.at)
		return rec, nil, err
	case "ookla":
		res, err := ookla.Simulate(sub.Path, rho, src)
		if err != nil {
			return dataset.Record{}, nil, err
		}
		// Seq carries the deterministic job ID so the publisher
		// aggregates groups in a worker-count-independent order.
		return dataset.Record{}, &ookla.RawSample{Region: sub.Region, ASN: sub.ASN, Time: j.at, Result: res, Seq: j.id}, nil
	default:
		return dataset.Record{}, nil, fmt.Errorf("pipeline: unknown dataset %q", j.dataset)
	}
}

// ScoreAll scores every region from the sketch.
func (r *StreamingResult) ScoreAll(cfg iqb.Config) (map[string]iqb.Score, error) {
	scores := map[string]iqb.Score{}
	for _, code := range r.World.DB.AllRegions() {
		s, err := cfg.ScoreSketcher(r.Sketch, code)
		if err != nil {
			return nil, fmt.Errorf("pipeline: sketch-scoring %s: %w", code, err)
		}
		scores[code] = s
	}
	return scores, nil
}
