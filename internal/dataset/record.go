// Package dataset defines the unified measurement record the IQB
// framework aggregates, an in-memory store with region/ISP/time indexes,
// streaming group-by percentile aggregation, and NDJSON/CSV codecs for
// moving records in and out of the system.
//
// Records from different measurement systems carry different subsets of
// metrics (Ookla aggregates, for example, publish no packet loss), so
// every metric is optional; missing values are NaN internally and omitted
// on the wire.
//
// # Store architecture
//
// The Store keeps its records in one append-only row log in insertion
// order, with region, ASN and dataset indexes of log positions, so
// Select and Values return insertion order without a sequence sort.
// Gather skips the copies for callers that derive many order-free
// aggregates from one read, such as every cell and window of a windowed
// score: it hands out a view of the stored rows (Row: Time, Value), and
// tells each row's dataset as its position among names the caller
// gives (View.DatasetIndex). One table of log positions enforces
// (dataset, ID) uniqueness, and AddBatch validates and dedup-checks an
// entire batch before mutating anything, so a mid-batch failure never
// leaves the store partially updated.
//
// A batch becomes visible whole: its rows and cells are added under one
// exclusive hold of the store's view lock, and every read holds that
// lock shared for the whole read, so no read — Select, Gather, Values,
// TimeBounds, the cell index, Cut, Len, DatasetCounts, Regions — sees
// part of a batch. Writers serialize on one ordered step that checks
// the batch, runs the hook chain around the insert (see Hooks) and
// claims its IDs; the view lock and that step's lock are the store's
// only locks.
//
// Stored records hold no pointers, so the garbage collector never scans
// them:
//
//   - The slot. The log keeps each record as a 72-byte Row: the time
//     as Unix seconds and nanoseconds, the four metrics bit for bit
//     (NaN still meaning missing), the ASN, and uint32 indexes for
//     Dataset, Region, Tech and the time zone. Rows sit in 256-row
//     chunks that never move once full.
//   - The dictionary. Each store has one append-only table of the
//     Dataset, Region and Tech strings and one of zones; a batch that
//     would push an index past uint32 fails whole. Looking a name up
//     takes no lock, and a batch interns its names only once its
//     duplicate check has passed, so a rejected batch adds none. The
//     dictionary stays inside the package: callers name datasets by
//     string.
//   - The ID arena. An ID's bytes are stored once, in the store's one
//     append-only arena of chunks that never move; a row names them by
//     a 64-bit arena reference. The (dataset, ID) set is one
//     open-addressing table of log positions, each beside 32 bits of
//     its entry's hash, read and written only in the ordered step. IDs
//     of any length fit: a shared chunk is never smaller than the entry
//     that opens it, and one too long for a shared chunk gets a chunk
//     of its own.
//   - The zone rule. UTC and time.Local come back as themselves; any
//     other location comes back as one shared time.FixedZone per (name,
//     offset) of the stored instant. A Select'ed time is therefore Equal
//     to the stored one, with the same zone name and offset — what the
//     NDJSON codec writes. Years outside 0–9999 and nanoseconds survive.
//
// Filters compare dictionary indexes and Unix times. Records go back to
// Record at the edges — Select, Store.Cut (snapshots), the hooks and
// the codecs — with the IDs of one call sharing one string.
//
// Quantile aggregation is streaming: every insert folds metric values
// into a per-(dataset, region, metric) cell that is exact up to a
// cutover and then promotes to a DDSketch, so Aggregate answers
// region-scoped percentile queries without materializing values. Filters
// the cells cannot express (ASN, time windows) fall back to an exact
// indexed scan.
//
// # Determinism contract
//
// A store holds its batches in the order its writers commit them, so
// the same batches in the same order build the same store, and the same
// WAL bytes behind it; the pipeline commits its batches in job order
// for any worker count. Every aggregate the store serves is moreover a
// pure function of the record multiset, independent of insertion order:
// exact paths sort before computing percentiles and the sketch path
// uses DDSketch, whose bucket-count state is order-independent.
//
// # NDJSON codec
//
// Records travel as NDJSON — ingest request bodies, WAL frames and
// snapshot frames — through one hand-written codec (codec.go).
// WriteNDJSON appends each line with strconv into the caller's buffer,
// writing exactly the bytes json.Encoder writes for the jsonRecord wire
// form, so data dirs written before the codec stay valid byte for byte.
// The decoders (NDJSONDecoder, ReadNDJSON, ParseNDJSON) parse a line in
// the canonical form — the encoder's keys in any order, no whitespace,
// no null, strings without escapes — straight into a Record; any other
// line goes to json.Unmarshal, so what is accepted and every error and
// line number are encoding/json's for all input.
package dataset

import (
	"fmt"
	"math"
	"time"
)

// Metric identifies one of the four network metrics IQB consumes.
type Metric int

// The metrics, matching the paper's network-requirements tier.
const (
	Download Metric = iota
	Upload
	Latency
	Loss
	numMetrics
)

// AllMetrics returns every metric in declaration order.
func AllMetrics() []Metric {
	out := make([]Metric, numMetrics)
	for i := range out {
		out[i] = Metric(i)
	}
	return out
}

// String names the metric.
func (m Metric) String() string {
	switch m {
	case Download:
		return "download"
	case Upload:
		return "upload"
	case Latency:
		return "latency"
	case Loss:
		return "loss"
	default:
		return fmt.Sprintf("Metric(%d)", int(m))
	}
}

// ParseMetric resolves a metric by its String name.
func ParseMetric(s string) (Metric, error) {
	for _, m := range AllMetrics() {
		if m.String() == s {
			return m, nil
		}
	}
	return 0, fmt.Errorf("dataset: unknown metric %q", s)
}

// Record is one measurement: a single test by one subscriber (for NDT and
// Cloudflare style datasets) or one published aggregate row (Ookla
// style). Metric fields are NaN when the source does not report them.
type Record struct {
	// ID uniquely identifies the record within its dataset.
	ID string
	// Time is when the measurement completed.
	Time time.Time
	// Dataset names the source pipeline ("ndt", "cloudflare", "ookla").
	Dataset string
	// Region is the hierarchical region code the subscriber is in.
	Region string
	// ASN identifies the subscriber's ISP; zero if unknown.
	ASN uint32
	// Tech optionally records the access technology, when known.
	Tech string

	// DownloadMbps and UploadMbps are goodput in Mbit/s.
	DownloadMbps float64
	// UploadMbps is upstream goodput in Mbit/s.
	UploadMbps float64
	// LatencyMS is the idle round-trip time in milliseconds.
	LatencyMS float64
	// LossFrac is the packet loss fraction in [0, 1].
	LossFrac float64
}

// NewRecord returns a record with all metrics missing.
func NewRecord(id, ds, region string, t time.Time) Record {
	nan := math.NaN()
	return Record{
		ID: id, Dataset: ds, Region: region, Time: t,
		DownloadMbps: nan, UploadMbps: nan, LatencyMS: nan, LossFrac: nan,
	}
}

// Value returns the metric value and whether it is present.
func (r *Record) Value(m Metric) (float64, bool) {
	var v float64
	switch m {
	case Download:
		v = r.DownloadMbps
	case Upload:
		v = r.UploadMbps
	case Latency:
		v = r.LatencyMS
	case Loss:
		v = r.LossFrac
	default:
		return 0, false
	}
	if math.IsNaN(v) {
		return 0, false
	}
	return v, true
}

// SetValue sets the metric value.
func (r *Record) SetValue(m Metric, v float64) {
	switch m {
	case Download:
		r.DownloadMbps = v
	case Upload:
		r.UploadMbps = v
	case Latency:
		r.LatencyMS = v
	case Loss:
		r.LossFrac = v
	}
}

// Has reports whether the metric is present.
func (r *Record) Has(m Metric) bool {
	_, ok := r.Value(m)
	return ok
}

// Validate checks the record is structurally sound: identified, located,
// and with finite, in-range metric values where present. Infinities are
// rejected here because JSON cannot carry them: a record that validated
// but held +Inf would make WriteNDJSON fail mid-stream. (NaN is the
// internal "missing" sentinel, so it is never observable as a value.)
func (r *Record) Validate() error {
	if r.ID == "" {
		return fmt.Errorf("dataset: record missing ID")
	}
	if r.Dataset == "" {
		return fmt.Errorf("dataset: record %s missing dataset", r.ID)
	}
	if r.Region == "" {
		return fmt.Errorf("dataset: record %s missing region", r.ID)
	}
	if r.Time.IsZero() {
		return fmt.Errorf("dataset: record %s missing time", r.ID)
	}
	hasAny := false
	for _, m := range AllMetrics() {
		v, ok := r.Value(m)
		if ok && math.IsInf(v, 0) {
			return fmt.Errorf("dataset: record %s non-finite %s %v", r.ID, m, v)
		}
		hasAny = hasAny || ok
	}
	if v, ok := r.Value(Download); ok && v < 0 {
		return fmt.Errorf("dataset: record %s negative download %v", r.ID, v)
	}
	if v, ok := r.Value(Upload); ok && v < 0 {
		return fmt.Errorf("dataset: record %s negative upload %v", r.ID, v)
	}
	if v, ok := r.Value(Latency); ok && v < 0 {
		return fmt.Errorf("dataset: record %s negative latency %v", r.ID, v)
	}
	if v, ok := r.Value(Loss); ok && (v < 0 || v > 1) {
		return fmt.Errorf("dataset: record %s loss %v out of [0,1]", r.ID, v)
	}
	if !hasAny {
		return fmt.Errorf("dataset: record %s carries no metrics", r.ID)
	}
	return nil
}
