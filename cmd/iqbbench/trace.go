package main

import (
	"bufio"
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"iqb/internal/dataset"
	"iqb/internal/httpapi"
	"iqb/internal/ingest"
	"iqb/internal/iqb"
	"iqb/internal/persist"
	"iqb/internal/pipeline"
	"iqb/internal/scorecache"
)

// The traced run replays a workload in-process against the same layers
// iqbserver wires together, recording spans only in this file around
// calls into each layer's public functions:
//
//   - client goroutines time each op and, inside it, NDJSON decode,
//     Ingester.Enqueue, Cache.Score/Ranking, Store.TimeBounds,
//     Config.ScoreWindows and the buffered JSON encode of the httpapi
//     response type;
//   - a timing persist.WALFS times every WAL frame write and fsync;
//   - two store hook probes bracket the score cache's hooks (probe A is
//     registered before scorecache.New, probe B after). The store calls
//     hooks in registration order, so A→B brackets the cache's mark,
//     B's Ingest → A's Commit the shard insert, and A→B's Commit the
//     cache invalidation.
//
// The single ingest drainer makes drain rounds sequential, so the WAL
// frame writes and fsyncs between one round's last commit hook and the
// next round's probe A belong to that round. A round's record IDs name
// the requests it serves; its stage spans become children of each of
// those requests' Enqueue spans.

// rawSpan is a client-goroutine span, kept small in the hot loop.
type rawSpan struct {
	name   string
	start  int64 // ns since the phase began
	end    int64
	parent int32 // index in the same client's spans; -1 for an op
	seq    int32 // the client's request number
	n      int32 // records decoded or bytes encoded
	attr   string
}

// round is one ingest drain round, seen through the hook probes.
type round struct {
	aIng, bIng, aCom, bCom int64
	rs                     []dataset.Record
}

// walEvent is one timed WAL file operation.
type walEvent struct {
	kind       string // persist.wal_write, persist.wal_fsync, or "" for segment set-up
	start, end int64
	bytes      int
}

// tracer is a traced pass's span store. Shared hooks record only while
// on is set, so set-up and verification stay out of the phase.
type tracer struct {
	full bool // false times only the outer op (the overhead baseline)
	t0   time.Time
	on   atomic.Bool

	mu        sync.Mutex
	rounds    []round
	wal       []walEvent
	snapshots dist // growth snapshot durations, s
	bad       []string
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) problem(format string, args ...any) {
	t.mu.Lock()
	t.bad = append(t.bad, fmt.Sprintf(format, args...))
	t.mu.Unlock()
}

// probe is a store hook observer recording one side of the cache's
// hooks into the current drain round.
func (t *tracer) probe(first bool) dataset.Hooks {
	return dataset.Hooks{
		Ingest: func(rs []dataset.Record) error {
			now := t.now()
			if !t.on.Load() {
				return nil
			}
			t.mu.Lock()
			if first {
				t.rounds = append(t.rounds, round{aIng: now, rs: rs})
			} else if n := len(t.rounds); n > 0 {
				t.rounds[n-1].bIng = now
			}
			t.mu.Unlock()
			return nil
		},
		Commit: func(rs []dataset.Record) {
			now := t.now()
			if !t.on.Load() {
				return
			}
			t.mu.Lock()
			if n := len(t.rounds); n > 0 {
				if first {
					t.rounds[n-1].aCom = now
				} else {
					t.rounds[n-1].bCom = now
				}
			}
			t.mu.Unlock()
		},
	}
}

// timedFS is the WAL's file layer with each frame write and fsync
// timed. A segment's first write (its header, on a file created
// exclusively) and the fsync after it are set-up, not frames.
type timedFS struct{ t *tracer }

type timedFile struct {
	*os.File
	t      *tracer
	header bool // the next write is a new segment's header
	framed bool // a frame was written since the last fsync
}

func (fs timedFS) OpenFile(name string, flag int, perm os.FileMode) (persist.WALFile, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &timedFile{File: f, t: fs.t, header: flag&os.O_EXCL != 0}, nil
}

func (fs timedFS) Open(name string) (persist.WALFile, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	return &timedFile{File: f, t: fs.t}, nil
}

func (timedFS) Remove(name string) error { return os.Remove(name) }

func (timedFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	return errors.Join(d.Sync(), d.Close())
}

func (f *timedFile) record(kind string, start int64, n int) {
	end := f.t.now()
	if !f.t.on.Load() {
		return
	}
	f.t.mu.Lock()
	f.t.wal = append(f.t.wal, walEvent{kind: kind, start: start, end: end, bytes: n})
	f.t.mu.Unlock()
}

func (f *timedFile) Write(p []byte) (int, error) {
	start := f.t.now()
	n, err := f.File.Write(p)
	kind := "persist.wal_write"
	if f.header {
		kind, f.header = "", false
	} else {
		f.framed = true
	}
	f.record(kind, start, n)
	return n, err
}

func (f *timedFile) Sync() error {
	start := f.t.now()
	err := f.File.Sync()
	kind := ""
	if f.framed {
		kind, f.framed = "persist.wal_fsync", false
	}
	f.record(kind, start, 0)
	return err
}

// replica is the layer stack iqbserver builds, assembled in-process.
type replica struct {
	t            *tracer
	cfg          iqb.Config
	mgr          *persist.Manager
	store        *dataset.Store
	cache        *scorecache.Cache
	ing          *ingest.Ingester
	g            geography
	character    map[string]string
	worldRecords int
	runS         float64 // pipeline.Run into the WAL store

	stopSnap chan struct{}
	snapDone chan struct{}
}

var quiet = slog.New(slog.NewTextHandler(io.Discard, nil))

// openReplica builds the world the way iqbserver's first boot does:
// pipeline.Run into a WAL-backed store, an initial snapshot, then the
// score cache and the ingester, plus the growth-snapshot loop.
func openReplica(ctx context.Context, dir string, w workload, t *tracer) (*replica, error) {
	opts := persist.Options{SnapshotWALBytes: int64(w.snapshotWALBytes)}
	if t.full {
		opts.FS = timedFS{t}
	}
	mgr, err := persist.Open(dir, opts)
	if err != nil {
		return nil, err
	}
	rp := &replica{t: t, cfg: iqb.DefaultConfig(), mgr: mgr, store: mgr.Store(), character: map[string]string{}}
	spec := pipeline.DefaultSpec()
	spec.Seed = worldSeed
	spec.TestsPerCounty = w.tests
	spec.Store = rp.store
	if !spec.Start.Equal(worldStart) || spec.Days*24 != worldHours {
		return nil, errors.Join(fmt.Errorf("the world window moved to %v + %d days; update worldStart", spec.Start, spec.Days), mgr.Close())
	}
	start := time.Now()
	res, err := pipeline.Run(ctx, spec)
	if err != nil {
		return nil, errors.Join(err, mgr.Close())
	}
	rp.runS = time.Since(start).Seconds()
	if _, err := mgr.Snapshot(); err != nil {
		return nil, errors.Join(err, mgr.Close())
	}
	rp.worldRecords = rp.store.Len()
	for _, code := range res.World.DB.AllRegions() {
		r, ok := res.World.DB.Region(code)
		if !ok {
			return nil, errors.Join(fmt.Errorf("region %s has no record", code), mgr.Close())
		}
		rp.g.add(code, r.Level.String())
		rp.character[code] = r.Character.String()
	}
	rp.g.sort()

	if t.full {
		rp.store.AddHooks(t.probe(true))
	}
	if rp.cache, err = scorecache.New(rp.store, rp.cfg, quiet); err != nil {
		return nil, errors.Join(err, mgr.Close())
	}
	if t.full {
		rp.store.AddHooks(t.probe(false))
	}
	if rp.ing, err = ingest.New(rp.store, ingest.Options{}); err != nil {
		return nil, errors.Join(err, mgr.Close())
	}
	rp.stopSnap, rp.snapDone = make(chan struct{}), make(chan struct{})
	go rp.snapshotLoop()
	return rp, nil
}

// snapshotLoop mirrors iqbserver's growth trigger: each GrowthC signal
// runs SnapshotIfGrown.
func (rp *replica) snapshotLoop() {
	defer close(rp.snapDone)
	for {
		select {
		case <-rp.stopSnap:
			return
		case <-rp.mgr.GrowthC():
			// A snapshot that starts in the phase counts, even if it ends
			// after; close waits for it.
			inPhase := rp.t.on.Load()
			start := time.Now()
			_, cut, err := rp.mgr.SnapshotIfGrown()
			if err != nil {
				rp.t.problem("growth snapshot: %v", err)
			} else if cut && inPhase {
				rp.t.mu.Lock()
				rp.t.snapshots = append(rp.t.snapshots, time.Since(start).Seconds())
				rp.t.mu.Unlock()
			}
		}
	}
}

// close stops the replica in iqbserver's shutdown order: ingester, then
// persistence.
func (rp *replica) close() error {
	close(rp.stopSnap)
	<-rp.snapDone
	return errors.Join(rp.ing.Close(), rp.mgr.Close())
}

// encode is the server's buffered JSON encode of a response.
func encode(v any) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}

// clientTrace is one replica client's spans and tallies.
type clientTrace struct {
	t     *tracer
	seq   int32 // the request in progress
	spans []rawSpan
	ph    phase
	// enqueues maps a request number to its Enqueue spans.
	enqueues map[int][]int32
}

func (ct *clientTrace) begin(name string, parent int32) int32 {
	if !ct.t.full && parent >= 0 {
		return -1
	}
	ct.spans = append(ct.spans, rawSpan{name: name, start: ct.t.now(), parent: parent, seq: ct.seq})
	return int32(len(ct.spans) - 1)
}

func (ct *clientTrace) end(i int32, n int, attr string) {
	if i < 0 {
		return
	}
	s := &ct.spans[i]
	s.end, s.n, s.attr = ct.t.now(), int32(n), attr
}

// do runs one op the way the server's handler would, recording spans.
func (rp *replica) do(ct *clientTrace, seq int, o op, body []byte) error {
	ct.seq = int32(seq)
	opSpan := ct.begin("op."+o.kind.String(), -1)
	var resp any
	switch o.kind {
	case opIngest:
		dec := dataset.NewNDJSONDecoder(bytes.NewReader(body))
		accepted := 0
		for {
			sp := ct.begin("dataset.decode", opSpan)
			rs, wire, err := dec.Next(rp.ing.DrainRecords())
			ct.end(sp, len(rs), "")
			if err == io.EOF {
				break
			}
			if err != nil {
				return err
			}
			sp = ct.begin("ingest.enqueue", opSpan)
			err = rp.ing.Enqueue(rs, wire)
			ct.end(sp, len(rs), "")
			if sp >= 0 {
				ct.enqueues[seq] = append(ct.enqueues[seq], sp)
			}
			if err != nil {
				return err
			}
			accepted += len(rs)
		}
		ct.ph.accepted += accepted
		resp = httpapi.IngestResponse{Accepted: accepted}
	case opScore:
		from, to := o.window()
		sp := ct.begin("scorecache.score", opSpan)
		score, outcome, err := rp.cache.Score(o.region, from, to)
		ct.end(sp, 0, outcome.String())
		if err != nil {
			return err
		}
		resp = httpapi.ScoreResponse{Region: o.region, Score: score}
	case opRanking:
		sp := ct.begin("scorecache.ranking", opSpan)
		ranked, omitted := rp.cache.Ranking(rp.g.counties)
		ct.end(sp, 0, "")
		resp = rp.rankingResponse(ranked, omitted)
	case opTimeseries:
		sp := ct.begin("dataset.time_bounds", opSpan)
		from, to, ok := rp.store.TimeBounds(dataset.Filter{RegionPrefix: o.region})
		ct.end(sp, 0, "")
		if !ok {
			return fmt.Errorf("no data for region %s", o.region)
		}
		sp = ct.begin("iqb.score_windows", opSpan)
		points, err := rp.cfg.ScoreWindows(rp.store, o.region, from, to.Add(time.Nanosecond), tsWindow)
		ct.end(sp, 0, "")
		if err != nil {
			return err
		}
		resp = httpapi.TimeSeriesResponse{Region: o.region, Window: tsWindow.String(), Points: points}
	}
	sp := ct.begin("httpapi.encode", opSpan)
	out, err := encode(resp)
	ct.end(sp, len(out), o.kind.String())
	ct.end(opSpan, 0, "")
	return err
}

func (rp *replica) rankingResponse(ranked []scorecache.Ranked, omitted int) httpapi.RankingResponse {
	rows := make([]httpapi.RankingRow, 0, len(ranked))
	for _, r := range ranked {
		rows = append(rows, httpapi.RankingRow{
			Rank: len(rows) + 1, Region: r.Region, Character: rp.character[r.Region],
			IQB: r.Score.IQB, Grade: string(r.Score.Grade),
		})
	}
	return httpapi.RankingResponse{Rows: rows, Omitted: omitted}
}

// answers encodes the fixed answer sample exactly as the server would
// serve it, keyed by the request path.
func (rp *replica) answers(cache *scorecache.Cache) (map[string][]byte, error) {
	ranked, omitted := cache.Ranking(rp.g.counties)
	body, err := encode(rp.rankingResponse(ranked, omitted))
	if err != nil {
		return nil, err
	}
	out := map[string][]byte{"/v1/ranking": body}
	for _, r := range rp.g.regions {
		score, _, err := cache.Score(r, time.Time{}, time.Time{})
		if err != nil {
			return nil, fmt.Errorf("scoring %s: %w", r, err)
		}
		if out[op{kind: opScore, region: r}.path()], err = encode(httpapi.ScoreResponse{Region: r, Score: score}); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// tracedPass is one replica pass's raw measurements.
type tracedPass struct {
	t       *tracer
	ph      *phase
	clients []*clientTrace
	runS    float64
	replayS float64
	records int // records recovered by the reopen
	ingest  ingest.Stats
	cache   scorecache.Stats // deltas over the phase
	answers map[string][]byte
}

// runReplica performs one replica pass in a fresh directory: set-up and
// the measured phase. A full pass then fetches the answer sample, closes,
// reopens (timed recovery) and makes the same durability and recovery
// checks the untraced run makes.
func runReplica(ctx context.Context, cfg config, w workload, full bool, chk *checker) (*tracedPass, error) {
	dir, err := os.MkdirTemp(cfg.work, w.name+"-replica-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	t := &tracer{full: full}
	rp, err := openReplica(ctx, dir, w, t)
	if err != nil {
		return nil, err
	}
	closed := false
	defer func() {
		if !closed {
			rp.close()
		}
	}()
	gens := make([]*bodyGen, clients)
	for c := range gens {
		gens[c] = newBodyGen(cfg.seed, c, rp.g.counties)
	}
	plans := plan(w, rp.g, cfg.seed, cfg.requests(w))
	ing0, cache0 := rp.ing.Stats(), rp.cache.Stats()
	pass := &tracedPass{t: t, runS: rp.runS, ph: &phase{}}

	runtime.GC() // the previous pass's store is garbage; collect it outside the phase
	t.t0 = time.Now()
	t.on.Store(true)
	var wg sync.WaitGroup
	for c := range plans {
		ct := &clientTrace{t: t, enqueues: map[int][]int32{}}
		pass.clients = append(pass.clients, ct)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var buf []byte
			for seq, o := range plans[c] {
				if o.kind == opIngest {
					buf = gens[c].body(buf[:0], seq)
				}
				ct.ph.attempted++
				start := time.Now()
				if err := rp.do(ct, seq, o, buf); err != nil {
					ct.ph.fail("%s: %v", o.kind, err)
					continue
				}
				ct.ph.lat[o.kind] = append(ct.ph.lat[o.kind], float64(time.Since(start))/1e6)
			}
		}(c)
	}
	wg.Wait()
	pass.ph.seconds = time.Since(t.t0).Seconds()
	t.on.Store(false)
	for _, ct := range pass.clients {
		pass.ph.merge(&ct.ph)
	}
	ing1, cache1 := rp.ing.Stats(), rp.cache.Stats()
	pass.ingest = ingest.Stats{
		AcceptedBatches: ing1.AcceptedBatches - ing0.AcceptedBatches,
		AcceptedRecords: ing1.AcceptedRecords - ing0.AcceptedRecords,
		Drains:          ing1.Drains - ing0.Drains,
	}
	pass.cache = scorecache.Stats{
		Hits: cache1.Hits - cache0.Hits, Misses: cache1.Misses - cache0.Misses,
		RankingRepairs: cache1.RankingRepairs - cache0.RankingRepairs,
	}

	if full {
		if pass.answers, err = rp.answers(rp.cache); err != nil {
			return nil, err
		}
	}
	closed = true
	if err := rp.close(); err != nil || !full {
		return pass, err
	}
	start := time.Now()
	mgr, err := persist.Open(dir, persist.Options{})
	if err != nil {
		return nil, fmt.Errorf("reopening the replica: %w", err)
	}
	pass.replayS = time.Since(start).Seconds()
	pass.records = mgr.Store().Len()
	want := rp.worldRecords + pass.ph.accepted
	chk.expect("replica-accepted-equals-durable", pass.records == want,
		"replica records after reopen %d, want %d world + %d accepted", pass.records, rp.worldRecords, pass.ph.accepted)
	fresh, err := scorecache.New(mgr.Store(), rp.cfg, quiet)
	if err != nil {
		return nil, errors.Join(err, mgr.Close())
	}
	recovered, err := rp.answers(fresh)
	if err != nil {
		return nil, errors.Join(err, mgr.Close())
	}
	chk.sameAnswers("replica-recovered-equals-cached", recovered, pass.answers)
	return pass, mgr.Close()
}

// span is one exported span of trace.json.
type span struct {
	ID      int      `json:"id"`
	Name    string   `json:"name"`
	Start   int64    `json:"start_ns"`
	End     int64    `json:"end_ns"`
	Parents []int    `json:"parents,omitempty"`
	Reqs    []string `json:"req"`
	Attr    string   `json:"attr,omitempty"`
	N       int      `json:"n,omitempty"`
}

// assemble joins the client spans and the drain-round stage spans into
// one span list, with each round's stages children of the Enqueue spans
// of every request the round serves.
func (p *tracedPass) assemble() ([]span, error) {
	var out []span
	base := make([]int, len(p.clients))
	for c, ct := range p.clients {
		base[c] = len(out)
		for _, rs := range ct.spans {
			s := span{ID: len(out), Name: rs.name, Start: rs.start, End: rs.end, Attr: rs.attr, N: int(rs.n),
				Reqs: []string{fmt.Sprintf("c%d-%d", c, rs.seq)}}
			if rs.parent >= 0 {
				s.Parents = []int{base[c] + int(rs.parent)}
			}
			out = append(out, s)
		}
	}

	t := p.t
	wal := t.wal
	slices.SortFunc(wal, func(a, b walEvent) int { return cmp.Compare(a.start, b.start) })
	var unattributed int
	prevEnd := int64(-1 << 62)
	wi := 0
	for _, r := range t.rounds {
		if r.bIng == 0 || r.aCom == 0 || r.bCom == 0 {
			return nil, errors.New("a drain round is missing probe timestamps")
		}
		var parents []int
		var reqs []string
		seen := map[[2]int]bool{}
		for _, rec := range r.rs {
			c, seq, ok := requestOf(rec.ID)
			if !ok || c >= len(p.clients) {
				return nil, fmt.Errorf("record %q names no benchmark request", rec.ID)
			}
			if seen[[2]int{c, seq}] {
				continue
			}
			seen[[2]int{c, seq}] = true
			for _, e := range p.clients[c].enqueues[seq] {
				parents = append(parents, base[c]+int(e))
			}
			reqs = append(reqs, fmt.Sprintf("c%d-%d", c, seq))
		}
		add := func(name string, start, end int64, n int) {
			out = append(out, span{ID: len(out), Name: name, Start: start, End: end, Parents: parents, Reqs: reqs, N: n})
		}
		for ; wi < len(wal) && wal[wi].start <= r.aIng; wi++ {
			e := wal[wi]
			switch {
			case e.kind == "":
			case e.start > prevEnd:
				add(e.kind, e.start, e.end, e.bytes)
			default:
				unattributed++
			}
		}
		add("scorecache.mark", r.aIng, r.bIng, 0)
		add("dataset.insert", r.bIng, r.aCom, len(r.rs))
		add("scorecache.invalidate", r.aCom, r.bCom, 0)
		prevEnd = r.bCom
	}
	for ; wi < len(wal); wi++ {
		if wal[wi].kind != "" {
			unattributed++
		}
	}
	if unattributed > 0 {
		return nil, fmt.Errorf("%d WAL frame operations fall outside every drain round", unattributed)
	}
	return out, nil
}

// childrenOf lists each span's children by ID.
func childrenOf(spans []span) [][]int {
	children := make([][]int, len(spans))
	for _, s := range spans {
		for _, p := range s.Parents {
			children[p] = append(children[p], s.ID)
		}
	}
	return children
}

// selfTimes returns each span's self time: its duration minus the part
// of it its children cover.
func selfTimes(spans []span) []int64 {
	children := childrenOf(spans)
	self := make([]int64, len(spans))
	for i, s := range spans {
		var iv [][2]int64
		for _, c := range children[i] {
			iv = append(iv, [2]int64{max(spans[c].Start, s.Start), min(spans[c].End, s.End)})
		}
		self[i] = s.End - s.Start - covered(iv)
	}
	return self
}

// covered is the total length of the union of intervals.
func covered(iv [][2]int64) int64 {
	slices.SortFunc(iv, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	var total int64
	cur := [2]int64{-1 << 62, -1 << 62}
	for _, v := range iv {
		if v[1] <= v[0] {
			continue
		}
		if v[0] > cur[1] {
			total += cur[1] - cur[0]
			cur = v
		} else if v[1] > cur[1] {
			cur[1] = v[1]
		}
	}
	return total + cur[1] - cur[0]
}

// writeTrace writes the spans as one JSON document.
func writeTrace(path string, w workload, seed uint64, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	err = json.NewEncoder(bw).Encode(struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Spans    []span `json:"spans"`
	}{w.name, seed, spans})
	return errors.Join(err, bw.Flush(), f.Close())
}
