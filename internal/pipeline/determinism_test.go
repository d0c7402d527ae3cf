package pipeline

import (
	"bytes"
	"context"
	"runtime"
	"testing"

	"iqb/internal/dataset"
	"iqb/internal/iqb"
)

// TestStreamingScoreAllDeterministicAcrossWorkerCounts is the streaming
// twin of TestScoreAllDeterministicAcrossWorkerCounts: for a fixed
// Spec.Seed, RunStreaming followed by ScoreAll must produce
// bit-identical scores for every worker count.
// This exercises workers simulating chunks of the schedule in parallel
// and the one committer folding each chunk into the Sketcher in
// schedule order, so the sketcher sees the same batches whatever the
// worker count.
func TestStreamingScoreAllDeterministicAcrossWorkerCounts(t *testing.T) {
	cfg := iqb.DefaultConfig()
	workerCounts := []int{1, 4, runtime.GOMAXPROCS(0)}

	type outcome struct {
		workers  int
		cells    int
		ingested map[string]int
		scores   map[string]iqb.Score
	}
	var outcomes []outcome
	for _, w := range workerCounts {
		spec := smallSpec()
		spec.Workers = w
		res, err := RunStreaming(context.Background(), spec)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		scores, err := res.ScoreAll(cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		outcomes = append(outcomes, outcome{w, res.Sketch.Cells(), res.Ingested, scores})
	}

	ref := outcomes[0]
	for _, o := range outcomes[1:] {
		if o.cells != ref.cells {
			t.Errorf("sketch cells: %d with 1 worker, %d with %d workers", ref.cells, o.cells, o.workers)
		}
		for name, n := range ref.ingested {
			if o.ingested[name] != n {
				t.Errorf("dataset %s: %d ingested with 1 worker, %d with %d workers",
					name, n, o.ingested[name], o.workers)
			}
		}
		if len(o.scores) != len(ref.scores) {
			t.Errorf("scored %d regions with %d workers, %d with 1", len(o.scores), o.workers, len(ref.scores))
		}
		for region, rs := range ref.scores {
			os := o.scores[region]
			if os.IQB != rs.IQB || os.Grade != rs.Grade || os.Coverage != rs.Coverage {
				t.Errorf("region %s: workers=1 (IQB %v, %s, cov %v) vs workers=%d (IQB %v, %s, cov %v)",
					region, rs.IQB, rs.Grade, rs.Coverage, o.workers, os.IQB, os.Grade, os.Coverage)
			}
		}
	}
}

// TestScoreAllDeterministicAcrossWorkerCounts is the determinism
// regression pin: for a fixed Spec.Seed, pipeline.Run followed by
// ScoreAll must produce bit-identical scores for every worker count.
// This exercises the whole ingestion path — chunks simulated in
// parallel, committed to the store in schedule order, the Ookla
// aggregates published from samples queued in that order — and the
// store's aggregation.
func TestScoreAllDeterministicAcrossWorkerCounts(t *testing.T) {
	cfg := iqb.DefaultConfig()
	workerCounts := []int{1, 4, runtime.GOMAXPROCS(0)}

	type outcome struct {
		workers int
		counts  map[string]int
		scores  map[string]iqb.Score
		isps    []ISPScore
	}
	var outcomes []outcome
	for _, w := range workerCounts {
		spec := smallSpec()
		spec.Workers = w
		res, err := Run(context.Background(), spec)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		scores, err := res.ScoreAll(cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		isps, err := res.RankISPs(cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		outcomes = append(outcomes, outcome{w, res.Counts, scores, isps})
	}

	ref := outcomes[0]
	for _, o := range outcomes[1:] {
		for name, n := range ref.counts {
			if o.counts[name] != n {
				t.Errorf("dataset %s: %d records with 1 worker, %d with %d workers",
					name, n, o.counts[name], o.workers)
			}
		}
		if len(o.scores) != len(ref.scores) {
			t.Errorf("scored %d regions with %d workers, %d with 1", len(o.scores), o.workers, len(ref.scores))
		}
		for region, rs := range ref.scores {
			os := o.scores[region]
			if os.IQB != rs.IQB || os.Grade != rs.Grade || os.Coverage != rs.Coverage {
				t.Errorf("region %s: workers=1 (IQB %v, %s, cov %v) vs workers=%d (IQB %v, %s, cov %v)",
					region, rs.IQB, rs.Grade, rs.Coverage, o.workers, os.IQB, os.Grade, os.Coverage)
			}
		}
		for i := range ref.isps {
			if o.isps[i].ASN != ref.isps[i].ASN || o.isps[i].Score.IQB != ref.isps[i].Score.IQB {
				t.Errorf("ISP rank %d differs across worker counts: AS%d (%v) vs AS%d (%v)",
					i, ref.isps[i].ASN, ref.isps[i].Score.IQB, o.isps[i].ASN, o.isps[i].Score.IQB)
			}
		}
	}
}

// TestSinkBatchesIdenticalAcrossWorkerCounts pins the commit order: for
// a fixed Spec.Seed, fanOut hands sink the same batches, record for
// record and in the same order, whatever the worker count. A store fed
// by sink therefore holds its records in one order, and a WAL that tees
// the store logs the same bytes.
func TestSinkBatchesIdenticalAcrossWorkerCounts(t *testing.T) {
	var ref []string
	for _, w := range []int{1, 2, 4} {
		spec := smallSpec()
		// Enough jobs for several batches, so workers interleave.
		spec.TestsPerCounty = 120
		spec.Workers = w
		world, err := BuildWorld(spec)
		if err != nil {
			t.Fatal(err)
		}
		// No lock: sink is never called concurrently, and under -race
		// this append would report a second caller.
		var batches []string
		err = fanOut(context.Background(), world, spec, func(rs []dataset.Record) error {
			var b bytes.Buffer
			if err := dataset.WriteNDJSON(&b, rs); err != nil {
				return err
			}
			batches = append(batches, b.String())
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if ref == nil {
			ref = batches
			continue
		}
		if len(batches) != len(ref) {
			t.Fatalf("workers=%d: %d sink batches, %d with 1 worker", w, len(batches), len(ref))
		}
		for i := range ref {
			if batches[i] != ref[i] {
				t.Fatalf("workers=%d: sink batch %d of %d differs from the 1-worker run", w, i+1, len(ref))
			}
		}
	}
}
