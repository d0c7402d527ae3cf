// Command iqbbench is the repository benchmark: fixed-work traffic
// against a live, WAL-backed iqbserver, measured end to end, plus a
// traced in-process replica of the same traffic that breaks each
// request down by layer.
//
// # Usage
//
// From the repository root (the script builds both binaries into
// .bench_build/ and keeps every file it writes there):
//
//	bash cmd/iqbbench/run.sh --workload ingest --seed 1 --seconds 8 --trace 0
//
// or, from this directory (iqbbench is a module of its own that builds
// iqbserver from the enclosing checkout):
//
//	go run . -workload mixed -seed 1 [-seconds 8] [-trace 1] [-smoke] [-out report.json]
//
// Every run prints each metric by name and unit, the per-op latency
// breakdown, every correctness check and the final ranking's SHA-256,
// and ends with one JSON line: {"correct", "attempted", "failed",
// "metrics"}. It exits non-zero when a check fails. -out also writes the
// whole report; -smoke scales every request count by 1/100 and times one
// set-up. go test runs the unit tests and a smoke run of every workload
// (-short skips the smoke run).
//
// # Load
//
// Load comes from this one process: 2 closed-loop clients, each on one
// keep-alive connection, each sending its next request only after the
// previous answer. Dashboards wait for each answer and feeders wait for
// the durable 202 before the next batch, so a closed loop fits. The hot
// loop reads bodies into io.Discard; answers are checked after the
// measured phase. Runs are fixed work: each workload sends perSecond ×
// -seconds requests, chosen so the phase lasts about -seconds on the
// 2-core, 8 GB box the benchmark was defined on. The same request count
// on both sides of a comparison fixes the final store, memory and
// recovery work. Request order, values, regions and timestamps come from
// -seed, and every timestamp falls inside the simulated world's 7-day
// window; the server keeps its world seed, 42. Record IDs name the
// client and request only, so every seed writes the same bytes.
//
// # Workloads
//
//	ingest     -tests 120 world; 100% POST /v1/ingest, 50 records a body,
//	           1000/s. Every write layer works: decode, admission and
//	           drain, AddBatch, WAL write and fsync, two growth
//	           snapshots, the cache-invalidation hook. The read layers
//	           idle.
//	read-warm  -tests 120; 70% /v1/score (unbounded window, all 17
//	           regions), 30% /v1/ranking, 9000/s. All 17 entries fit the
//	           score cache, so reads hit and time goes to routing,
//	           logging and JSON encoding (12 KB score and 1.1 KB ranking
//	           bodies). The bypass workload for any write-path change.
//	mixed      -tests 120; ingest 20 / score 50 / ranking 30, 950/s.
//	           A batch touches nearly all 12 counties, so it evicts their
//	           scores and their ancestors' and forces a ranking repair:
//	           reads mostly miss. One growth snapshot. A gain on one side
//	           that costs the other shows here.
//	scan       -tests 1200 world (28.8k records); 70% /v1/score over
//	           random hour-aligned [from,to) windows of at least 24 h
//	           over states and counties, 30% /v1/timeseries (county,
//	           24 h), 140/s. Time filters force the exact-scan fallback
//	           across all shards and the key space (16 regions × ~10k
//	           windows) dwarfs the cache. A shard-routing or time index
//	           or a time-series cache moves this one; read-warm bypasses
//	           those paths.
//
// Flush policy is the server's default on every workload: fsync on,
// default group commit, the 5 m snapshot interval. The write workloads
// add a growth threshold sized from their WAL volume (about 178 bytes a
// record): ingest writes 68 MiB a phase and sets -snapshot-wal-bytes to
// 26 MiB, for two growth snapshots; mixed writes 13 MiB and sets 9 MiB,
// for one. Each threshold exceeds the 8 MiB WAL segment and puts its
// cuts mid-segment, so the count does not hinge on where a segment
// ends. Server output goes to server.log in the run directory.
//
// # End-to-end metrics (-trace 0)
//
//	setup_s      exec to first healthy /v1/health on a fresh data dir
//	             (simulation through the WAL plus the initial snapshot);
//	             median of 5 set-ups
//	p50_ms       request latency over every op of the mix
//	tail_ms      the same at p99, which has at least 10 samples beyond it
//	             on every workload at full scale
//	ops_per_s    completed requests per second of the phase
//	peak_rss_mb  the server's VmHWM after the phase
//
// Every workload reports all five, so each is a pooled figure for the
// workload's mix; the per-op p50/p90/p99 are printed beside them, and
// the run's failures are the "failed" count. Every run also prints two
// figures that are not gated: server_cpu_ms_per_op, the server's
// user+system CPU over the phase (/proc/<pid>/stat) per completed
// request, and recover_s, the time from a restart on the run's data dir
// after SIGKILL until healthy. persist.replay_us_per_record tracks
// recovery work per record in the traced run.
//
// # Spread
//
// A metric's spread is the distance between the first and third
// quartiles of ten runs with distinct seeds, over their median. Every
// bound in BENCHMARK.json is 0.25, the largest allowed, and the timing
// metrics need it. On the 2-vCPU VM the benchmark was defined on, the
// box's speed drifts over minutes as other tenants load the host, on
// every workload at once: the same requests took up to 1.7× as much
// server CPU time in one run as in another, and in one series four
// minutes of runs were up to 35% slower than the runs around them.
// Phases of 16 s, and medians or lower quartiles of 1 s slices within a
// run, did not narrow the spread, since the drift is slower than a run.
//
// In the two interleaved sets of results/, the timing metrics spread
// 0.07–0.23 and peak_rss_mb at most 0.10, and each set's medians lie
// within 9% of the other's. A second pair of sets of the same code
// spread 0.08–0.21 (setup_s up to 0.25) and at most 0.12, with medians
// within 11% on setup_s and 6% on the rest. In eight earlier sets, made
// while the growth thresholds were being set (one with 16 s phases),
// these pairs spread past the 0.25 bound at least once: read-warm
// p50_ms (0.35) and ops_per_s (0.29), ingest p50_ms (0.28) and
// ops_per_s (0.27), scan p50_ms (0.25) and tail_ms (0.25). No timing
// metric stays under a third of its bound on every workload.
// server_cpu_ms_per_op is not gated because it passed the bound most
// often (four pairs, up to 0.32), and recover_s because it spreads up
// to 0.44 where a restart takes 20 ms (read-warm).
//
// # Percentiles
//
// Nearest rank: the q-quantile of n sorted samples is the one at index
// ⌈q·n⌉−1 (the SNIPPETS.md §2 rule). A tail percentile is reported only
// when at least 10 samples lie beyond it; otherwise the printed value is
// 0 and the pooled tail falls back to p90. Every report names the rule
// and the sample count.
//
// # Correctness checks (every run)
//
//	accepted-equals-visible        records after the phase = before + 50 per 202
//	ranking-sorted-and-complete    ranks 1..n, IQB descending, ties by code,
//	                               every county present, none omitted
//	accepted-equals-durable        the same count after SIGKILL and restart
//	recovered-uncached-equals-cached
//	                               after the restart with -score-cache=false,
//	                               /v1/ranking and every region's /v1/score
//	                               are byte-identical to the bodies fetched
//	                               before the kill
//
// The ranking's SHA-256 is printed as ranking_sha256; it depends only on
// the workload and the seed.
//
// # Traced run (-trace 1)
//
// The traced run first runs the workload once against the server (one
// set-up, one restart, all checks), then replays it three times
// in-process: outer-op timing only, full tracing, outer-op timing only.
// The replica builds what iqbserver builds, through pipeline.Run into a
// persist.Open store, Manager.Snapshot, scorecache.New and ingest.New,
// and serves each op through the same public calls the handlers make.
// Spans are recorded only in this package (see trace.go), kept in memory
// and written to <work>/trace-<workload>-<seed>.json: each has a name,
// start, end, parents and request IDs. A drain round or WAL frame that
// serves several requests is a child of each request's Enqueue span.
//
//	metric                          measured by                      should move            on
//	dataset.decode_us_per_record    NDJSONDecoder.Next               ingest p50, ops_per_s  ingest
//	ingest.enqueue_ms_p50/p99       Ingester.Enqueue                 ingest p50 / tail      ingest, mixed
//	ingest.wait_ms_p50/p99          Enqueue self time: admission,    tail_ms                ingest
//	                                drain fold, validate, ack
//	ingest.records_per_drain        Ingester.Stats delta             ops_per_s              ingest
//	persist.wal_write_ms_p50        WALFile.Write via Options.FS     p50_ms                 ingest, mixed
//	persist.wal_fsync_ms_p50/p99    WALFile.Sync via Options.FS      p50_ms, tail_ms        ingest, mixed
//	persist.fsyncs_per_batch        frame fsyncs / Enqueue calls     ops_per_s, recover_s   ingest
//	persist.wal_bytes_per_record    frame bytes / records            ops_per_s, recover_s   ingest
//	persist.snapshot_s, .snapshots  SnapshotIfGrown on GrowthC       tail_ms                ingest, mixed
//	persist.replay_us_per_record    persist.Open of the closed dir   recover_s              ingest, mixed
//	dataset.insert_ms_p50           probe B Ingest → probe A Commit  p50_ms                 ingest, mixed
//	scorecache.mark_us_p50          probe A → B, Ingest phase        p50_ms                 mixed
//	scorecache.invalidate_us_p50    probe A → B, Commit phase        p50_ms                 mixed
//	scorecache.hit_ratio            Cache.Stats delta                p50_ms                 mixed, scan
//	scorecache.score_hit_us_p50     Cache.Score, Outcome hit         p50_ms                 read-warm, mixed
//	scorecache.score_miss_ms_p50    Cache.Score, other outcomes      p50_ms                 mixed, scan
//	scorecache.ranking_ms_p50       Cache.Ranking                    p50_ms                 mixed, read-warm
//	scorecache.repairs_per_ranking  Stats.RankingRepairs / rankings  p50_ms                 mixed
//	dataset.time_bounds_ms_p50      Store.TimeBounds                 p50_ms, tail_ms        scan
//	iqb.score_windows_ms_p50        Config.ScoreWindows              tail_ms                scan
//	httpapi.encode_us_p50.<op>      buffered JSON encode of the      p50_ms                 read-warm
//	                                httpapi response type
//	httpapi.resp_bytes.<op>         encoded body size                p50_ms                 read-warm
//	httpapi.residual_ms_p50.<op>    server p50 minus replica p50:    p50_ms                 read-warm
//	                                HTTP, loopback, logging
//	pipeline.run_s                  pipeline.Run into the WAL store  setup_s                all
//	trace.overhead_pct              traced pass against the mean of  none (sanity check)    all
//	                                the two outer-only passes
//
// <op> is ingest, score, ranking or timeseries. A layer the workload
// never enters reports 0, and so does a p99 with fewer than 10 samples
// beyond it. The probes are two store hook observers, one registered
// before scorecache.New and one after; the store runs hooks in
// registration order, so the gaps between them time each stage. The
// traced run also checks that:
//
//   - the replica's answers are byte-identical to the server's, and it
//     keeps every accepted record across a close and reopen;
//   - its fsyncs per batch and cache hit ratio agree with the server's
//     /v1/health counter deltas over the same phase within 10% of the
//     server's value, or it is doing different work. A ratio resting on
//     a handful of events (scan's cache hits: about 2 in 770) also
//     agrees when the two differ by at most 10 events;
//   - when a write workload's phase writes 1.25 times its growth
//     threshold in WAL bytes, both the replica and the server
//     (iqb_snapshots_total on /metrics) cut at least one snapshot in it;
//   - for each op type, the self times of the ops' spans sum to their
//     wall time within 1%: spans nest and siblings do not overlap.
//
// # Results
//
// results/seed-a.json and results/seed-b.json hold two interleaved sets
// of runs of the commit that defined the benchmark, ten seeds per
// workload each, with every run's metrics, its ungated figures and the
// server's snapshot count, and each set's median and quartile spread.
// seed-a.json also holds one traced run per workload.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
)

func main() {
	code, err := run(context.Background(), os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "iqbbench:", err)
	}
	os.Exit(code)
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	scale    float64 // 1, or 1/100 with -smoke
	server   string  // iqbserver binary; empty builds one
	work     string  // scratch directory for data dirs and logs
	out      string  // full report file; empty writes none
}

// requests is the workload's fixed request count for this run length.
func (c config) requests(w workload) int {
	return max(clients, int(float64(w.perSecond*c.seconds)*c.scale))
}

// lastLine is the final line of standard output.
type lastLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// opSummary is one op type's latency over a phase.
type opSummary struct {
	N   int     `json:"n"`
	P50 float64 `json:"p50_ms"`
	P90 float64 `json:"p90_ms,omitempty"`
	P99 float64 `json:"p99_ms,omitempty"`
}

// report is everything one invocation measured; -out writes it.
type report struct {
	Workload      string               `json:"workload"`
	Seed          uint64               `json:"seed"`
	Seconds       int                  `json:"seconds"`
	Scale         float64              `json:"scale"`
	Trace         bool                 `json:"trace"`
	Requests      int                  `json:"requests"`
	CPUs          int                  `json:"cpus"`
	GOMAXPROCS    int                  `json:"gomaxprocs"`
	Percentiles   string               `json:"percentiles"`
	TailQuantile  float64              `json:"tail_quantile"`
	Ops           map[string]opSummary `json:"ops"`
	SetupS        []float64            `json:"setup_s_samples"`
	RecoverS      float64              `json:"recover_s"`
	ServerCPUMS   float64              `json:"server_cpu_ms_per_op"`
	HealthDeltas  counters             `json:"health_deltas"`
	RankingSHA256 string               `json:"ranking_sha256"`
	Checks        []check              `json:"checks"`
	FirstError    string               `json:"first_error,omitempty"`
	Result        lastLine             `json:"result"`
}

const percentileRule = "nearest rank: the value at index ceil(q*n)-1 of the sorted sample; a tail is reported only with at least 10 samples beyond it"

func run(ctx context.Context, args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("iqbbench", flag.ContinueOnError)
	cfg := config{scale: 1}
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: ingest, read-warm, mixed or scan")
	fs.Uint64Var(&cfg.seed, "seed", 1, "seed for every generated request")
	fs.IntVar(&cfg.seconds, "seconds", 8, "run length: sets each workload's fixed request count")
	traceFlag := fs.Int("trace", 0, "1 replays the workload in-process with spans for the per-layer metrics")
	smoke := fs.Bool("smoke", false, "scale every request count by 1/100")
	fs.StringVar(&cfg.server, "server", "", "iqbserver binary (default: build one from this checkout)")
	fs.StringVar(&cfg.work, "work", filepath.Join(".bench_build", "iqbbench"), "scratch directory")
	fs.StringVar(&cfg.out, "out", "", "also write the full report as JSON to this file")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if fs.NArg() > 0 {
		return 2, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	w, err := findWorkload(cfg.workload)
	if err != nil {
		return 2, err
	}
	if cfg.seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		return 2, errors.New("-seconds must be positive and -trace 0 or 1")
	}
	cfg.trace = *traceFlag == 1
	if *smoke {
		cfg.scale = 0.01
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return 1, err
	}
	if cfg.server == "" {
		dir, err := os.MkdirTemp(cfg.work, "bin-")
		if err != nil {
			return 1, err
		}
		defer os.RemoveAll(dir)
		if cfg.server, err = buildServer(ctx, dir); err != nil {
			return 1, err
		}
	}

	chk := &checker{}
	rep := report{
		Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds, Scale: cfg.scale, Trace: cfg.trace,
		Requests: cfg.requests(w), CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Percentiles: percentileRule, Ops: map[string]opSummary{},
	}
	setups := setupRuns
	if cfg.trace || *smoke {
		// The traced run needs the server's latencies, counters and
		// answers, not its set-up time; a smoke run only needs every
		// metric once.
		setups = 1
	}
	u, err := runUntraced(ctx, cfg, w, setups, chk)
	if err != nil {
		return 1, err
	}
	rep.SetupS, rep.RecoverS, rep.ServerCPUMS, rep.HealthDeltas = u.setupS, u.recoverS, u.cpuMSPerOp, u.counters
	rep.RankingSHA256 = sha256Hex(u.answers["/v1/ranking"])
	rep.FirstError = u.phase.firstErr
	for k, d := range u.phase.lat {
		if len(d) == 0 {
			continue
		}
		s := d.sorted()
		rep.Ops[opNames[k]] = opSummary{N: len(s), P50: s.q(0.5), P90: s.qIfSupported(0.9), P99: s.qIfSupported(0.99)}
	}
	rep.TailQuantile = tailQuantile(u.phase.completed())
	res := lastLine{Attempted: u.phase.attempted, Failed: u.phase.failed}

	var ms *metricSet
	if !cfg.trace {
		ms = e2eMetrics(u)
	} else {
		// Outer-only, traced, outer-only: comparing the traced pass with
		// the mean of the two around it cancels a steady drift in box
		// speed out of the tracing overhead.
		var passes [3]*tracedPass
		for i, full := range []bool{false, true, false} {
			if passes[i], err = runReplica(ctx, cfg, w, full, chk); err != nil {
				return 1, fmt.Errorf("replica pass %d: %w", i+1, err)
			}
		}
		traced := passes[1]
		spans, err := traced.assemble()
		if err != nil {
			return 1, err
		}
		path := filepath.Join(cfg.work, fmt.Sprintf("trace-%s-%d.json", w.name, cfg.seed))
		if err := writeTrace(path, w, cfg.seed, spans); err != nil {
			return 1, fmt.Errorf("writing %s: %w", path, err)
		}
		for _, p := range passes {
			for _, b := range p.t.bad {
				chk.expect("replica-background", false, "%s", b)
			}
		}
		var plainLat [numOps]dist
		for k := range plainLat {
			plainLat[k] = append(passes[0].ph.lat[k], passes[2].ph.lat[k]...)
		}
		overhead := 100 * (2*traced.ph.seconds/(passes[0].ph.seconds+passes[2].ph.seconds) - 1)
		ms = layerMetrics(w, traced, overhead, plainLat, u, spans, chk)
		for _, p := range passes {
			res.Attempted += p.ph.attempted
			res.Failed += p.ph.failed
			if rep.FirstError == "" {
				rep.FirstError = p.ph.firstErr
			}
		}
	}
	res.Metrics = ms.out()
	res.Correct = chk.ok()
	rep.Checks, rep.Result = chk.checks, res

	printReport(stdout, rep, ms)
	if cfg.out != "" {
		blob, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return 1, err
		}
		if err := os.WriteFile(cfg.out, append(blob, '\n'), 0o644); err != nil {
			return 1, err
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return 1, err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1, errors.New("a correctness check failed")
	}
	return 0, nil
}

// printReport writes the human-readable part of the output: every
// metric by name and unit, the per-op breakdown and every check.
func printReport(w io.Writer, rep report, ms *metricSet) {
	fmt.Fprintf(w, "iqbbench workload=%s seed=%d seconds=%d scale=%g trace=%t requests=%d clients=%d cpus=%d gomaxprocs=%d\n",
		rep.Workload, rep.Seed, rep.Seconds, rep.Scale, rep.Trace, rep.Requests, clients, rep.CPUs, rep.GOMAXPROCS)
	fmt.Fprintf(w, "percentiles: %s\n", rep.Percentiles)
	if !rep.Trace {
		fmt.Fprintf(w, "latencies pool every op of the mix; tail_ms is p%g over %d requests\n", 100*rep.TailQuantile, rep.Result.Attempted-rep.Result.Failed)
	}
	for _, d := range ms.defs {
		fmt.Fprintf(w, "metric %-36s %14.6g %s\n", d.name, ms.values[d.name], d.unit)
	}
	for _, name := range opNames {
		if s, ok := rep.Ops[name]; ok {
			fmt.Fprintf(w, "op %-10s n=%-7d p50_ms=%.4g p90_ms=%.4g p99_ms=%.4g (0: fewer than 10 samples beyond)\n", name, s.N, s.P50, s.P90, s.P99)
		}
	}
	if !rep.Trace {
		fmt.Fprintf(w, "recover_s %.6g s: restart after SIGKILL (printed, not gated)\n", rep.RecoverS)
	}
	fmt.Fprintf(w, "server_cpu_ms_per_op %.6g ms: server user+system CPU over the phase per completed request (printed, not gated)\n", rep.ServerCPUMS)
	d := rep.HealthDeltas
	fmt.Fprintf(w, "server counter deltas: fsyncs=%d group_commits=%d drains=%d accepted_batches=%d cache_hits=%d cache_misses=%d snapshots=%d\n",
		d.Fsyncs, d.GroupCommits, d.Drains, d.AcceptedBatches, d.Hits, d.Misses, d.Snapshots)
	if rep.FirstError != "" {
		fmt.Fprintf(w, "first failed request: %s\n", rep.FirstError)
	}
	for _, c := range rep.Checks {
		verdict := "ok"
		if !c.OK {
			verdict = "FAILED: " + c.Detail
		}
		fmt.Fprintf(w, "check %s %s\n", c.Name, verdict)
	}
	fmt.Fprintf(w, "ranking_sha256 %s\n", rep.RankingSHA256)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
