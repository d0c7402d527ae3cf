// Command iqbserver simulates a world (or recovers one from a data
// directory) and serves IQB scores over the JSON HTTP API.
//
// Usage:
//
//	iqbserver [-addr 127.0.0.1:8600] [-seed 42] [-tests 120]
//	          [-data-dir DIR] [-snapshot-interval 5m] [-snapshot-wal-bytes N]
//	          [-wal-segment-bytes N]
//	          [-ingest-queue-records N] [-ingest-queue-bytes N]
//	          [-ingest-drain-records N] [-ingest-body-cap N]
//	          [-score-cache=true] [-metrics=true]
//
// Endpoints: /v1/health /v1/config /v1/regions /v1/score?region=R
// (optional from/to RFC 3339 window bounds) /v1/ranking /v1/datasets,
// plus POST /v1/ingest (streaming NDJSON), plus POST /v1/snapshot with
// -data-dir, plus GET /metrics unless -metrics=false.
//
// POST /v1/ingest accepts measurement records as NDJSON and commits
// them through an admission-controlled queue: a single drainer
// goroutine folds queued batches into store commits of at most
// -ingest-drain-records records, writers block until their records are
// durable (when -data-dir is set, that means fsynced through the WAL),
// and once -ingest-queue-records or -ingest-queue-bytes of admitted
// work is in flight the server sheds further batches with 429 and
// Retry-After instead of buffering without bound. The response reports
// how many records were accepted and rejected; /v1/health exposes
// queue depth and shed counts in its ingest block, and /metrics adds
// drain-size and enqueue-to-commit latency distributions.
//
// With -metrics (the default), the server exposes its own telemetry at
// GET /metrics in Prometheus text format: per-endpoint request counts,
// in-flight gauges, and latency quantiles served from the repo's own
// DDSketch; WAL append/fsync/rollback counters with fsync-latency and
// group-fold-size distributions; snapshot trigger counts and replay
// debt; and score-cache hit/miss/eviction counters. Every collector
// reads lock-free counters, so a scrape never stalls behind an
// in-flight WAL fsync. -metrics=false serves no /metrics route and
// registers no instruments.
//
// Memory-only (no -data-dir) boots re-simulate the world every start.
// With -data-dir, the first boot runs the pipeline into a WAL-backed
// store — every batch is fsynced to a segmented write-ahead log before
// it becomes queryable — and then cuts an initial snapshot. Later boots
// recover the store from snapshot + WAL without re-running the
// pipeline, tolerating the torn WAL tail a crash mid-append leaves
// behind; only the synthetic geography is rebuilt, from the seed
// recorded in the data dir (which overrides -seed). A background
// snapshotter cuts a fresh snapshot every -snapshot-interval (0
// disables it) and compacts WAL segments the snapshot covers.
//
// The ingest drainer folds the client batches queued during a commit
// into one AddBatch, so parallel ingestion pays far fewer fsyncs than
// batches; the WAL appends that batch inline, one frame and one fsync,
// in the order the store gives batches their sequence numbers. Snapshots are
// written in the WAL's own CRC-framed format and recovery streams them
// frame by frame, so a snapshot never has to fit in memory as bytes.
//
// Snapshots also trigger on WAL growth: with -snapshot-wal-bytes N > 0,
// the background snapshotter cuts a snapshot as soon as the WAL holds
// N bytes not covered by the latest one — bounding how much replay a
// recovery can owe under heavy ingest, independent of the wall clock.
// /v1/health's persistence block reports the bytes and records
// accumulated since the last snapshot so the trigger is observable.
//
// By default the server answers /v1/score and /v1/ranking from a
// scored-region cache invalidated precisely by ingest: the cache joins
// the store's hook chain next to the WAL tee, evicts only the (region,
// window) entries a committed batch touched, and maintains the county
// ranking as an incrementally repaired sorted view. -score-cache=false
// reverts to scoring every request from the store. /v1/health reports
// hit/miss/eviction counters in its cache block, and /metrics exports
// them as iqb_scorecache_*.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"iqb/internal/dataset"
	"iqb/internal/geo"
	"iqb/internal/httpapi"
	"iqb/internal/ingest"
	"iqb/internal/iqb"
	"iqb/internal/persist"
	"iqb/internal/pipeline"
	"iqb/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "iqbserver:", err)
		os.Exit(1)
	}
}

// bootOptions configures openWorld.
type bootOptions struct {
	dataDir      string
	segmentBytes int64
	// snapshotWALBytes arms the WAL-growth snapshot trigger (0 off).
	snapshotWALBytes int64
	// metrics instruments the WAL and snapshot manager; nil runs them
	// uninstrumented.
	metrics *telemetry.Registry
}

// persistOptions translates boot flags into the durable store's
// options.
func (o bootOptions) persistOptions() persist.Options {
	return persist.Options{
		SegmentBytes:     o.segmentBytes,
		SnapshotWALBytes: o.snapshotWALBytes,
		Metrics:          o.metrics,
	}
}

// world is everything a boot produces: the queryable store, the
// geography to score it against, and (with a data dir) the persistence
// manager behind the store.
type world struct {
	store *dataset.Store
	db    *geo.DB
	mgr   *persist.Manager // nil when memory-only
	// recovered is true when the store was restored from disk rather
	// than produced by running the pipeline.
	recovered bool
}

// openWorld builds the serving state. Memory-only: run the pipeline.
// With a data dir: recover the store from snapshot + WAL when the dir
// holds data (rebuilding only the geography, never re-running the
// pipeline), or run the pipeline through the WAL on first boot and cut
// the initial snapshot.
func openWorld(logger *slog.Logger, spec pipeline.Spec, opts bootOptions) (*world, error) {
	if opts.dataDir == "" {
		logger.Info("simulating world (memory-only)", "seed", spec.Seed, "tests_per_county", spec.TestsPerCounty)
		res, err := pipeline.Run(context.Background(), spec)
		if err != nil {
			return nil, err
		}
		logger.Info("world ready", "records", res.Store.Len(), "elapsed", res.Elapsed)
		return &world{store: res.Store, db: res.World.DB}, nil
	}

	mgr, err := persist.Open(opts.dataDir, opts.persistOptions())
	if err != nil {
		return nil, err
	}
	rec := mgr.Recovery()
	if rec.HasData() {
		meta, err := mgr.Meta()
		if err != nil {
			return nil, errors.Join(err, mgr.Close())
		}
		if s, ok := meta["seed"]; ok {
			seed, err := strconv.ParseUint(s, 10, 64)
			if err != nil {
				return nil, errors.Join(fmt.Errorf("data dir meta has malformed seed %q: %w", s, err), mgr.Close())
			}
			if seed != spec.Seed {
				logger.Warn("data dir was built with a different seed; using the recorded one",
					"flag_seed", spec.Seed, "recorded_seed", seed)
			}
			spec.Seed = seed
		}
		// The records are already durable; only the synthetic
		// geography (regions, ISP catalog) must be rebuilt, and that
		// is a pure function of the seed — no measurement replay.
		w, err := pipeline.BuildWorld(spec)
		if err != nil {
			return nil, errors.Join(fmt.Errorf("rebuilding geography: %w", err), mgr.Close())
		}
		logger.Info("world recovered from data dir",
			"dir", opts.dataDir,
			"records", mgr.Store().Len(),
			"from_snapshot", rec.FromSnapshot,
			"snapshot_records", rec.SnapshotRecords,
			"wal_batches", rec.WALBatches,
			"wal_records", rec.WALRecords,
			"torn_tail", rec.TornTail,
			"elapsed", rec.Elapsed)
		return &world{store: mgr.Store(), db: w.DB, mgr: mgr, recovered: true}, nil
	}

	// First boot of this data dir: simulate through the WAL, so the
	// store is durable from the very first batch, then snapshot. The
	// seed is recorded before the run — a crash mid-simulation leaves
	// WAL records that only that seed's geography can interpret, and a
	// restart must not rebuild the world from a different -seed flag.
	logger.Info("simulating world into data dir", "dir", opts.dataDir, "seed", spec.Seed, "tests_per_county", spec.TestsPerCounty)
	if err := mgr.SetMeta(map[string]string{
		"seed":             strconv.FormatUint(spec.Seed, 10),
		"tests_per_county": strconv.Itoa(spec.TestsPerCounty),
	}); err != nil {
		return nil, errors.Join(err, mgr.Close())
	}
	spec.Store = mgr.Store()
	res, err := pipeline.Run(context.Background(), spec)
	if err != nil {
		return nil, errors.Join(err, mgr.Close())
	}
	info, err := mgr.Snapshot()
	if err != nil {
		return nil, errors.Join(fmt.Errorf("initial snapshot: %w", err), mgr.Close())
	}
	logger.Info("world ready and durable", "records", res.Store.Len(), "elapsed", res.Elapsed,
		"snapshot", info.Path, "snapshot_bytes", info.Bytes)
	return &world{store: res.Store, db: res.World.DB, mgr: mgr}, nil
}

func run(args []string) error {
	fs := flag.NewFlagSet("iqbserver", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8600", "listen address")
	seed := fs.Uint64("seed", 42, "random seed for the simulated world")
	tests := fs.Int("tests", 120, "tests per county per dataset")
	dataDir := fs.String("data-dir", "", "durable store directory; empty serves memory-only")
	snapEvery := fs.Duration("snapshot-interval", 5*time.Minute, "background snapshot period (0 disables)")
	snapWALBytes := fs.Int64("snapshot-wal-bytes", 0, "also snapshot once this many WAL bytes accumulate past the last snapshot (0 disables the growth trigger)")
	segBytes := fs.Int64("wal-segment-bytes", persist.DefaultSegmentBytes, "WAL segment rotation threshold")
	queueRecords := fs.Int("ingest-queue-records", ingest.DefaultQueueRecords, "live-ingest admission cap in queued records; past it POST /v1/ingest sheds with 429")
	queueBytes := fs.Int64("ingest-queue-bytes", ingest.DefaultQueueBytes, "live-ingest admission cap in queued wire bytes")
	drainRecords := fs.Int("ingest-drain-records", ingest.DefaultDrainRecords, "most records the ingest drainer commits per store batch")
	bodyCap := fs.Int64("ingest-body-cap", httpapi.DefaultIngestBodyCap, "largest POST /v1/ingest request body in bytes")
	useCache := fs.Bool("score-cache", true, "serve /v1/score and /v1/ranking from the ingest-invalidated score cache")
	metricsOn := fs.Bool("metrics", true, "serve self-telemetry at GET /metrics (Prometheus text format)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))

	// The registry is created before the world so the WAL and snapshot
	// manager register their collectors at open time — recovery fsyncs
	// and the initial snapshot are counted too.
	var reg *telemetry.Registry
	if *metricsOn {
		reg = telemetry.NewRegistry()
	}

	spec := pipeline.DefaultSpec()
	spec.Seed = *seed
	spec.TestsPerCounty = *tests
	w, err := openWorld(logger, spec, bootOptions{
		dataDir:          *dataDir,
		segmentBytes:     *segBytes,
		snapshotWALBytes: *snapWALBytes,
		metrics:          reg,
	})
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	api, err := httpapi.Open(httpapi.Config{
		Scoring:          iqb.DefaultConfig(),
		Store:            w.store,
		Geo:              w.db,
		Logger:           logger,
		Persist:          w.mgr,
		SnapshotInterval: *snapEvery,
		NoScoreCache:     !*useCache,
		Ingest: ingest.Options{
			QueueRecords: *queueRecords,
			QueueBytes:   *queueBytes,
			DrainRecords: *drainRecords,
		},
		IngestBodyCap: *bodyCap,
		Metrics:       reg,
	})
	if err != nil {
		return err
	}
	// Runs after the HTTP server has stopped: the ingester drains into
	// the WAL before the WAL's final fsync.
	defer func() {
		if cerr := api.Close(); cerr != nil {
			logger.Error("closing server", "err", cerr)
		}
	}()
	srv := &http.Server{
		Addr:              *addr,
		Handler:           api,
		ReadHeaderTimeout: 5 * time.Second,
	}

	errCh := make(chan error, 1)
	go func() {
		logger.Info("listening", "addr", *addr, "durable", w.mgr != nil)
		errCh <- srv.ListenAndServe()
	}()
	select {
	case err := <-errCh:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	case <-ctx.Done():
		logger.Info("shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		return srv.Shutdown(shutdownCtx)
	}
}
