package main

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"strconv"
	"strings"
	"time"
)

// opKind is one request type the workloads send.
type opKind int

const (
	opIngest opKind = iota
	opScore
	opRanking
	opTimeseries
	numOps
)

var opNames = [numOps]string{"ingest", "score", "ranking", "timeseries"}

func (k opKind) String() string { return opNames[k] }

const (
	clients      = 2  // closed-loop clients, one keep-alive connection each
	batchRecords = 50 // records per POST /v1/ingest body
	worldSeed    = 42 // the server's -seed; the workload seed never reaches it
	// minWindowHours keeps every scan window wide enough that each county
	// and state has usable data in it, so no /v1/score answers 404.
	minWindowHours = 24
	tsWindow       = 24 * time.Hour
)

// The simulated world's measurement window (pipeline.DefaultSpec). Every
// generated timestamp falls inside it, so ingest never widens a region's
// time bounds and /v1/timeseries work stays fixed.
var (
	worldStart = time.Date(2025, 6, 2, 0, 0, 0, 0, time.UTC)
	worldHours = 7 * 24
)

// workload is one traffic mix. The request count is fixed work:
// perSecond × -seconds, chosen so the measured phase lasts about
// -seconds on a 2-core box at the commit that defined the benchmark.
// Fixed work keeps the final store, memory and recovery work identical
// on both sides of a comparison.
type workload struct {
	name      string
	tests     int // the server's -tests: tests per county per dataset
	perSecond int
	mix       [numOps]int // request weights
	// snapshotWALBytes is the server's -snapshot-wal-bytes, its growth
	// snapshot threshold; 0 leaves the trigger off. It must exceed the
	// 8 MiB WAL segment: the trigger counts the segment the latest
	// snapshot cut through in full, so a smaller threshold would cut a
	// snapshot on every commit until that segment rotates.
	snapshotWALBytes int
	// windows sends /v1/score with random [from,to) windows over
	// counties and states instead of unbounded scores over all regions.
	windows bool
}

// A record takes about 178 WAL bytes, so an 8 s ingest phase (8000
// bodies of 50) writes 68 MiB, and a 26 MiB threshold cuts growth
// snapshots at about 26 and 50 MiB, each in the middle of a segment, so
// the count does not hinge on where a segment ends; the next would come
// at 74 MiB. An 8 s mixed phase (about 1520 bodies) writes 13 MiB and
// cuts one at 9 MiB; the next would come at 17 MiB.
var workloads = []workload{
	{name: "ingest", tests: 120, perSecond: 1000, mix: [numOps]int{opIngest: 100}, snapshotWALBytes: 26 << 20},
	{name: "read-warm", tests: 120, perSecond: 9000, mix: [numOps]int{opScore: 70, opRanking: 30}},
	{name: "mixed", tests: 120, perSecond: 950, mix: [numOps]int{opIngest: 20, opScore: 50, opRanking: 30}, snapshotWALBytes: 9 << 20},
	{name: "scan", tests: 1200, perSecond: 140, mix: [numOps]int{opScore: 70, opTimeseries: 30}, windows: true},
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// serverArgs are the iqbserver flags beyond -addr and -data-dir. Flush
// policy is the server's default: fsync on, default group commit, the
// default 5 m snapshot interval.
func (w workload) serverArgs() []string {
	args := []string{"-seed", strconv.Itoa(worldSeed), "-tests", strconv.Itoa(w.tests)}
	if w.snapshotWALBytes > 0 {
		args = append(args, "-snapshot-wal-bytes", strconv.Itoa(w.snapshotWALBytes))
	}
	return args
}

// geography is the region set requests draw from, sorted by code.
type geography struct {
	regions  []string // every region
	counties []string
	states   []string
}

func (g *geography) add(code, level string) {
	g.regions = append(g.regions, code)
	switch level {
	case "county":
		g.counties = append(g.counties, code)
	case "state":
		g.states = append(g.states, code)
	}
}

func (g *geography) sort() {
	slices.Sort(g.regions)
	slices.Sort(g.counties)
	slices.Sort(g.states)
}

// op is one planned request.
type op struct {
	kind   opKind
	region string
	// fromH and toH bound a scan /v1/score window in hours past
	// worldStart; both zero means unbounded.
	fromH, toH int
}

func (o op) window() (from, to time.Time) {
	if o.fromH == 0 && o.toH == 0 {
		return time.Time{}, time.Time{}
	}
	return worldStart.Add(time.Duration(o.fromH) * time.Hour), worldStart.Add(time.Duration(o.toH) * time.Hour)
}

// path is the request's URL path and query.
func (o op) path() string {
	switch o.kind {
	case opIngest:
		return "/v1/ingest"
	case opRanking:
		return "/v1/ranking"
	case opTimeseries:
		return "/v1/timeseries?region=" + o.region + "&window=" + tsWindow.String()
	}
	p := "/v1/score?region=" + o.region
	if from, to := o.window(); !from.IsZero() {
		p += "&from=" + from.Format(time.RFC3339) + "&to=" + to.Format(time.RFC3339)
	}
	return p
}

// plan draws each client's request sequence from the seed. Clients get
// independent streams, so the sequences do not depend on timing.
func plan(w workload, g geography, seed uint64, total int) [][]op {
	weights := 0
	for _, v := range w.mix {
		weights += v
	}
	scoreRegions := g.regions
	if w.windows {
		scoreRegions = append(append([]string(nil), g.states...), g.counties...)
	}
	plans := make([][]op, clients)
	for c := range plans {
		n := total / clients
		if c < total%clients {
			n++
		}
		r := rand.New(rand.NewPCG(seed, uint64(c)))
		ops := make([]op, n)
		for i := range ops {
			pick := r.IntN(weights)
			var k opKind
			for k = 0; pick >= w.mix[k]; k++ {
				pick -= w.mix[k]
			}
			o := op{kind: k}
			switch k {
			case opScore:
				o.region = scoreRegions[r.IntN(len(scoreRegions))]
				if w.windows {
					o.fromH = r.IntN(worldHours - minWindowHours + 1)
					o.toH = o.fromH + minWindowHours + r.IntN(worldHours-o.fromH-minWindowHours+1)
				}
			case opTimeseries:
				o.region = g.counties[r.IntN(len(g.counties))]
			}
			ops[i] = o
		}
		plans[c] = ops
	}
	return plans
}

// bodyGen makes one client's ingest bodies. Its stream is separate from
// the plan's, and bodies are drawn in plan order, so a client's i-th
// body is the same however the requests interleave with other clients.
type bodyGen struct {
	r        *rand.Rand
	prefix   string // record ID prefix naming the client
	counties []string
}

func newBodyGen(seed uint64, client int, counties []string) *bodyGen {
	return &bodyGen{
		r:        rand.New(rand.NewPCG(seed, 1<<32|uint64(client))),
		prefix:   fmt.Sprintf("b-c%d-r", client),
		counties: counties,
	}
}

// body appends the NDJSON body of the client's request number seq to
// buf. Record IDs are b-c<client>-r<seq>-<i>, so a record names the
// client and request that sent it. They leave the seed out, so the
// bytes a run writes do not depend on how many digits its seed has.
func (b *bodyGen) body(buf []byte, seq int) []byte {
	for i := 0; i < batchRecords; i++ {
		buf = append(buf, `{"id":"`...)
		buf = append(buf, b.prefix...)
		buf = strconv.AppendInt(buf, int64(seq), 10)
		buf = append(buf, '-')
		buf = strconv.AppendInt(buf, int64(i), 10)
		buf = append(buf, `","time":"`...)
		ts := worldStart.Add(time.Duration(b.r.Int64N(int64(worldHours)*3600)) * time.Second)
		buf = ts.AppendFormat(buf, time.RFC3339)
		buf = append(buf, `","dataset":"`...)
		if b.r.IntN(2) == 0 {
			buf = append(buf, "ndt"...)
		} else {
			buf = append(buf, "cloudflare"...)
		}
		buf = append(buf, `","region":"`...)
		buf = append(buf, b.counties[b.r.IntN(len(b.counties))]...)
		buf = append(buf, `","download_mbps":`...)
		buf = strconv.AppendFloat(buf, 10+490*b.r.Float64(), 'f', 3, 64)
		buf = append(buf, `,"upload_mbps":`...)
		buf = strconv.AppendFloat(buf, 2+98*b.r.Float64(), 'f', 3, 64)
		buf = append(buf, `,"latency_ms":`...)
		buf = strconv.AppendFloat(buf, 4+86*b.r.Float64(), 'f', 3, 64)
		buf = append(buf, `,"loss_frac":`...)
		buf = strconv.AppendFloat(buf, 0.02*b.r.Float64(), 'f', 5, 64)
		buf = append(buf, "}\n"...)
	}
	return buf
}

// requestOf recovers (client, seq) from a generated record ID.
func requestOf(id string) (client, seq int, ok bool) {
	parts := strings.Split(id, "-")
	if len(parts) != 4 || parts[0] != "b" || !strings.HasPrefix(parts[1], "c") || !strings.HasPrefix(parts[2], "r") {
		return 0, 0, false
	}
	c, err1 := strconv.Atoi(parts[1][1:])
	s, err2 := strconv.Atoi(parts[2][1:])
	if err1 != nil || err2 != nil {
		return 0, 0, false
	}
	return c, s, true
}
