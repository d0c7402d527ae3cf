// Package repro is the root of the Internet Quality Barometer (IQB)
// reproduction. The implementation lives under internal/ (README.md
// gives the tour, PAPER.md the source paper); the runnable tools live
// under cmd/ and examples/; this package holds the repository-level
// benchmark suite (bench_test.go) that regenerates every table and
// figure plus micro-benchmarks for the sharded dataset store's write
// path and its cell index, the Sketcher that also serves streaming runs.
//
// Durability: internal/persist backs the store with a segmented,
// CRC-framed write-ahead log and atomic snapshots, so cmd/iqbserver
// started with -data-dir recovers its store from disk (tolerating a
// torn WAL tail after a crash) instead of re-running the measurement
// pipeline. The ingest drainer folds concurrent client batches into
// one AddBatch, and the WAL appends each batch inline, one frame and one
// fsync, inside the store's ordered step, so the log holds batches in
// the order Select returns them. A snapshot is a sealed WAL segment in
// the same CRC-framed format, read back by the same frame reader and
// streamed into the store. Snapshots trigger on WAL growth
// (-snapshot-wal-bytes) as well as wall clock, bounding replay debt
// under heavy ingest. The durability contract is executable: a
// fault-injection file layer (short writes, fsync errors, kill-points
// mid-frame) drives a randomized crash-recovery property test, and the
// benchmarks quantify the WAL ingest tax, the fsyncs per batch the
// drainer's folding leaves under parallel writers
// (internal/ingest), and the recovery-vs-replay win.
//
// Read path: internal/scorecache caches per-region scores keyed by
// (region, time window, config hash) and invalidates them precisely
// when ingestion commits — it subscribes to the dataset store's ordered
// hook chain (coexisting with the WAL tee) and maintains the county
// ranking as an incrementally repaired sorted view, so cmd/iqbserver's
// /v1/score and /v1/ranking serve cached results that are byte-identical
// to uncached scoring; internal/httpapi's cold-vs-warm benchmarks
// quantify the win.
//
// Write path: internal/ingest turns the boot-time-only store into a
// live streaming target. POST /v1/ingest accepts NDJSON record batches
// through an admission-controlled queue — writers enqueue cheaply and
// block until their records are durable, a single drainer folds queued
// batches into large AddBatch commits through the store's ordered hook
// chain (WAL tee, scorecache invalidation, snapshot growth signals all
// fire unchanged), and a full queue sheds with a typed overload error
// that httpapi maps to 429 + Retry-After. cmd/iqbsim is the matching
// closed-loop load generator (mixed ingest/score/ranking traffic,
// DDSketch latency percentiles as JSON), run as a CI smoke against a
// WAL-backed server so the end-to-end write path has a macro-benchmark.
// The overload property test pins the contract: shed batches never
// appear, and every 202-accepted record survives kill-and-restart.
//
// Contracts: the invariants those subsystems rely on — fixed-seed
// bit-determinism, no fsync while a shared lock is held, no discarded
// write-path Sync/Close/Truncate errors — are machine-checked by the
// repo's own vet suite, internal/analyzers, run as a required CI step
// via `go run ./cmd/iqbvet ./...`. Intentional exceptions are annotated
// in the source with //iqbvet:ignore <analyzer> <reason>; see README.md
// for the rule-by-rule contract.
package repro
