package main

import (
	"math"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// metrics; TestCatalogMatchesBenchmarkJSON keeps the two in step.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics of the untraced run, measured against the
// real server over loopback HTTP. Latencies pool every op of the
// workload's mix; per-op percentiles are printed beside them.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"p50_ms", "ms", "lower"},
	{"tail_ms", "ms", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the metrics of the traced run. A layer the workload
// never enters reports 0.
var perLayer = []metricDef{
	{"dataset.decode_us_per_record", "us", "lower"},
	{"ingest.enqueue_ms_p50", "ms", "lower"},
	{"ingest.enqueue_ms_p99", "ms", "lower"},
	{"ingest.wait_ms_p50", "ms", "lower"},
	{"ingest.wait_ms_p99", "ms", "lower"},
	{"ingest.records_per_drain", "count", "higher"},
	{"persist.wal_write_ms_p50", "ms", "lower"},
	{"persist.wal_fsync_ms_p50", "ms", "lower"},
	{"persist.wal_fsync_ms_p99", "ms", "lower"},
	{"persist.fsyncs_per_batch", "ratio", "lower"},
	{"persist.wal_bytes_per_record", "B", "lower"},
	{"persist.snapshot_s", "s", "lower"},
	{"persist.snapshots", "count", "lower"},
	{"persist.replay_us_per_record", "us", "lower"},
	{"dataset.insert_ms_p50", "ms", "lower"},
	{"scorecache.mark_us_p50", "us", "lower"},
	{"scorecache.invalidate_us_p50", "us", "lower"},
	{"scorecache.hit_ratio", "ratio", "higher"},
	{"scorecache.score_hit_us_p50", "us", "lower"},
	{"scorecache.score_miss_ms_p50", "ms", "lower"},
	{"scorecache.ranking_ms_p50", "ms", "lower"},
	{"scorecache.repairs_per_ranking", "count", "lower"},
	{"dataset.time_bounds_ms_p50", "ms", "lower"},
	{"iqb.score_windows_ms_p50", "ms", "lower"},
	{"httpapi.encode_us_p50.ingest", "us", "lower"},
	{"httpapi.encode_us_p50.score", "us", "lower"},
	{"httpapi.encode_us_p50.ranking", "us", "lower"},
	{"httpapi.encode_us_p50.timeseries", "us", "lower"},
	{"httpapi.resp_bytes.ingest", "B", "lower"},
	{"httpapi.resp_bytes.score", "B", "lower"},
	{"httpapi.resp_bytes.ranking", "B", "lower"},
	{"httpapi.resp_bytes.timeseries", "B", "lower"},
	{"httpapi.residual_ms_p50.ingest", "ms", "lower"},
	{"httpapi.residual_ms_p50.score", "ms", "lower"},
	{"httpapi.residual_ms_p50.ranking", "ms", "lower"},
	{"httpapi.residual_ms_p50.timeseries", "ms", "lower"},
	{"pipeline.run_s", "s", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet fills values in a catalog's order and units.
type metricSet struct {
	defs   []metricDef
	values map[string]float64
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, values: map[string]float64{}}
}

func (m *metricSet) set(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m.values[name] = v
}

func (m *metricSet) out() map[string]metric {
	out := map[string]metric{}
	for _, d := range m.defs {
		out[d.name] = metric{Value: m.values[d.name], Unit: d.unit}
	}
	return out
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// e2eMetrics reduces an untraced run to the end-to-end metrics.
func e2eMetrics(u *untracedRun) *metricSet {
	m := newMetricSet(endToEnd)
	all := u.phase.pooled().sorted()
	m.set("setup_s", median(u.setupS))
	m.set("p50_ms", all.q(0.5))
	m.set("tail_ms", all.q(tailQuantile(len(all))))
	m.set("ops_per_s", float64(u.phase.completed())/u.phase.seconds)
	m.set("peak_rss_mb", u.peakRSSMB)
	return m
}

// layerMetrics reduces a traced replica pass (spans), the op latencies
// of the outer-only passes, the measured tracing overhead and the
// untraced run of the same workload and seed to the per-layer metrics,
// and cross-checks the replica against the server.
func layerMetrics(w workload, traced *tracedPass, overheadPct float64, plainLat [numOps]dist, u *untracedRun, spans []span, chk *checker) *metricSet {
	m := newMetricSet(perLayer)
	self := selfTimes(spans)
	byName := map[string]dist{}
	attr := map[string]dist{}
	var decodeNS, decodeRecs, walBytes float64
	var waits dist
	fsyncs, enqueues, rankings := 0, 0, 0
	for i, s := range spans {
		ms := float64(s.End-s.Start) / 1e6
		byName[s.Name] = append(byName[s.Name], ms)
		switch s.Name {
		case "dataset.decode":
			decodeNS += float64(s.End - s.Start)
			decodeRecs += float64(s.N)
		case "ingest.enqueue":
			enqueues++
			waits = append(waits, float64(self[i])/1e6)
		case "persist.wal_write":
			walBytes += float64(s.N)
		case "persist.wal_fsync":
			fsyncs++
		case "scorecache.ranking":
			rankings++
		case "scorecache.score":
			key := "miss"
			if s.Attr == "hit" {
				key = "hit"
			}
			attr["score."+key] = append(attr["score."+key], ms)
		case "httpapi.encode":
			attr["encode."+s.Attr] = append(attr["encode."+s.Attr], ms)
			attr["bytes."+s.Attr] = append(attr["bytes."+s.Attr], float64(s.N))
		}
	}
	p50 := func(d dist) float64 { return d.sorted().q(0.5) }
	p99 := func(d dist) float64 { return d.sorted().qIfSupported(0.99) }
	enq := byName["ingest.enqueue"]

	m.set("dataset.decode_us_per_record", ratio(decodeNS/1e3, decodeRecs))
	m.set("ingest.enqueue_ms_p50", p50(enq))
	m.set("ingest.enqueue_ms_p99", p99(enq))
	m.set("ingest.wait_ms_p50", p50(waits))
	m.set("ingest.wait_ms_p99", p99(waits))
	m.set("ingest.records_per_drain", ratio(float64(traced.ingest.AcceptedRecords), float64(traced.ingest.Drains)))
	m.set("persist.wal_write_ms_p50", p50(byName["persist.wal_write"]))
	m.set("persist.wal_fsync_ms_p50", p50(byName["persist.wal_fsync"]))
	m.set("persist.wal_fsync_ms_p99", p99(byName["persist.wal_fsync"]))
	tracedFPB := ratio(float64(fsyncs), float64(enqueues))
	m.set("persist.fsyncs_per_batch", tracedFPB)
	m.set("persist.wal_bytes_per_record", ratio(walBytes, float64(traced.ingest.AcceptedRecords)))
	m.set("persist.snapshot_s", p50(traced.t.snapshots))
	m.set("persist.snapshots", float64(len(traced.t.snapshots)))
	m.set("persist.replay_us_per_record", ratio(traced.replayS*1e6, float64(traced.records)))
	m.set("dataset.insert_ms_p50", p50(byName["dataset.insert"]))
	m.set("scorecache.mark_us_p50", 1e3*p50(byName["scorecache.mark"]))
	m.set("scorecache.invalidate_us_p50", 1e3*p50(byName["scorecache.invalidate"]))
	tracedHR := ratio(float64(traced.cache.Hits), float64(traced.cache.Hits+traced.cache.Misses))
	m.set("scorecache.hit_ratio", tracedHR)
	m.set("scorecache.score_hit_us_p50", 1e3*p50(attr["score.hit"]))
	m.set("scorecache.score_miss_ms_p50", p50(attr["score.miss"]))
	m.set("scorecache.ranking_ms_p50", p50(byName["scorecache.ranking"]))
	m.set("scorecache.repairs_per_ranking", ratio(float64(traced.cache.RankingRepairs), float64(rankings)))
	m.set("dataset.time_bounds_ms_p50", p50(byName["dataset.time_bounds"]))
	m.set("iqb.score_windows_ms_p50", p50(byName["iqb.score_windows"]))
	for k := opKind(0); k < numOps; k++ {
		name := k.String()
		m.set("httpapi.encode_us_p50."+name, 1e3*p50(attr["encode."+name]))
		m.set("httpapi.resp_bytes."+name, p50(attr["bytes."+name]))
		if len(u.phase.lat[k]) > 0 && len(plainLat[k]) > 0 {
			m.set("httpapi.residual_ms_p50."+name, p50(u.phase.lat[k])-p50(plainLat[k]))
		}
	}
	m.set("pipeline.run_s", traced.runS)
	m.set("trace.overhead_pct", overheadPct)

	checkSelfTimes(spans, self, chk)
	c := u.counters
	if c.AcceptedBatches > 0 && enqueues > 0 {
		chk.expect("cross-check-fsyncs-per-batch", agree(c.Fsyncs, c.AcceptedBatches, uint64(fsyncs), uint64(enqueues)),
			"server %.3f fsyncs per batch (%d/%d), replica %.3f (%d/%d)",
			ratio(float64(c.Fsyncs), float64(c.AcceptedBatches)), c.Fsyncs, c.AcceptedBatches, tracedFPB, fsyncs, enqueues)
	}
	if base, rbase := c.Hits+c.Misses, traced.cache.Hits+traced.cache.Misses; base > 0 && rbase > 0 {
		chk.expect("cross-check-hit-ratio", agree(c.Hits, base, traced.cache.Hits, rbase),
			"server hit ratio %.4f (%d/%d), replica %.4f (%d/%d)",
			ratio(float64(c.Hits), float64(base)), c.Hits, base, tracedHR, traced.cache.Hits, rbase)
	}
	chk.sameAnswers("replica-answers-equal-server", traced.answers, u.answers)
	if bound := float64(w.snapshotWALBytes) * snapshotMargin; w.snapshotWALBytes > 0 && walBytes >= bound {
		chk.expect("growth-snapshots-ran", len(traced.t.snapshots) > 0 && c.Snapshots > 0,
			"the phase wrote %.0f WAL bytes against a %d-byte growth threshold, but the replica cut %d snapshots and the server %d",
			walBytes, w.snapshotWALBytes, len(traced.t.snapshots), c.Snapshots)
	}
	return m
}

// agree reports whether the replica's ratio rn/rd matches the server's
// sn/sd within 10% of the server's value, or else by no more than
// minEvents events on the server's base. The second clause covers
// ratios that rest on a handful of events, such as scan's few cache
// hits, where one event more or less moves the ratio past 10%.
func agree(sn, sd, rn, rd uint64) bool {
	s, r := float64(sn)/float64(sd), float64(rn)/float64(rd)
	diff := math.Abs(s - r)
	return diff <= 0.10*s || diff*float64(sd) <= minEvents
}

const minEvents = 10

// snapshotMargin is how far past its growth threshold a traced phase's
// WAL must grow before growth-snapshots-ran expects a snapshot: the
// trigger fires once the WAL passes the threshold, and the remaining
// fifth of the writes leaves the snapshot loop time to start one while
// the phase runs.
const snapshotMargin = 1.25

// checkSelfTimes checks that, for each op type, the self times of every
// op's spans sum to the ops' wall time within 1%: spans nest inside
// their parents and siblings do not overlap, so the breakdown accounts
// for the whole op exactly once.
func checkSelfTimes(spans []span, self []int64, chk *checker) {
	children := childrenOf(spans)
	var sum, wall [numOps]float64
	for _, s := range spans {
		if len(s.Parents) != 0 {
			continue
		}
		k := -1
		for i, name := range opNames {
			if s.Name == "op."+name {
				k = i
			}
		}
		if k < 0 {
			continue
		}
		total := self[s.ID]
		for _, c := range children[s.ID] {
			total += self[c]
			for _, g := range children[c] {
				total += self[g]
			}
		}
		sum[k] += float64(total)
		wall[k] += float64(s.End - s.Start)
	}
	for k := range wall {
		if wall[k] == 0 {
			continue
		}
		dev := math.Abs(sum[k]-wall[k]) / wall[k]
		chk.expect("self-times-sum-to-wall."+opNames[k], dev <= 0.01,
			"%s span self times sum to %.4g ms against %.4g ms of wall time (%.2f%% apart)",
			opNames[k], sum[k]/1e6, wall[k]/1e6, 100*dev)
	}
}
