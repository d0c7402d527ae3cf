package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"iqb/internal/dataset"
)

// The nearest-rank table of SNIPPETS.md §2.
func TestNearestRank(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want int
	}{
		{2, 0.49, 0}, {2, 0.5, 0}, {2, 0.51, 1},
		{100, 0.01, 0}, {100, 0.99, 98}, {100, 0.995, 99},
		{10000, 0.999, 9989},
		{1, 0.99, 0}, {1000, 0.99, 989},
	} {
		if got := nearestRank(tc.q, tc.n); got != tc.want {
			t.Errorf("nearestRank(%v, %d) = %d, want %d", tc.q, tc.n, got, tc.want)
		}
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		q    float64
		n    int
		want bool
	}{
		{0.99, 1000, true}, {0.99, 999, false},
		{0.90, 100, true}, {0.90, 99, false},
		{0.99, 0, false},
	} {
		if got := tailSupported(tc.q, tc.n); got != tc.want {
			t.Errorf("tailSupported(%v, %d) = %v, want %v", tc.q, tc.n, got, tc.want)
		}
	}
	for n, want := range map[int]float64{5000: 0.99, 1000: 0.99, 999: 0.90, 100: 0.90, 99: 0.5} {
		if got := tailQuantile(n); got != want {
			t.Errorf("tailQuantile(%d) = %v, want %v", n, got, want)
		}
	}
	d := dist{3, 1, 2}.sorted()
	if d.q(0.5) != 2 || d.qIfSupported(0.99) != 0 {
		t.Errorf("3-sample dist: p50 %v, unsupported p99 %v", d.q(0.5), d.qIfSupported(0.99))
	}
}

func TestMetricNameGrammar(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(d.name) {
			t.Errorf("metric name %q breaks the grammar", d.name)
		}
		if seen[d.name] {
			t.Errorf("metric name %q used twice", d.name)
		}
		seen[d.name] = true
		if d.better != "lower" && d.better != "higher" {
			t.Errorf("metric %s: better is %q", d.name, d.better)
		}
	}
	for _, bad := range []string{"", ".lead", "has space", "slash/name", strings.Repeat("x", 65)} {
		if metricName.MatchString(bad) {
			t.Errorf("metric name %q should break the grammar", bad)
		}
	}
}

// benchmarkJSON is the part of the repository's BENCHMARK.json the
// benchmark must agree with.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricJSON `json:"end_to_end"`
	PerLayer []metricJSON `json:"per_layer"`
}

type metricJSON struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var listed []string
	for _, w := range b.Workloads {
		listed = append(listed, w.Name)
	}
	if !reflect.DeepEqual(names, listed) {
		t.Errorf("workloads %v, BENCHMARK.json lists %v", names, listed)
	}
	for _, c := range []struct {
		defs []metricDef
		json []metricJSON
	}{{endToEnd, b.EndToEnd}, {perLayer, b.PerLayer}} {
		var got []metricDef
		for _, m := range c.json {
			got = append(got, metricDef{m.Name, m.Unit, m.Better})
		}
		if !reflect.DeepEqual(got, c.defs) {
			t.Errorf("BENCHMARK.json lists\n%v\nthe benchmark reports\n%v", got, c.defs)
		}
	}
}

func testGeography() geography {
	var g geography
	g.add("XA", "country")
	for _, s := range []string{"XA-01", "XA-02"} {
		g.add(s, "state")
		for _, c := range []string{"-001", "-002", "-003"} {
			g.add(s+c, "county")
		}
	}
	g.sort()
	return g
}

// The same seed gives byte-identical bodies and the same per-client
// request order; another seed does not.
func TestGeneratorDeterminism(t *testing.T) {
	g := testGeography()
	gen := func(w workload, seed uint64) ([][]op, [][]byte) {
		plans := plan(w, g, seed, 400)
		var bodies [][]byte
		for c, p := range plans {
			bg := newBodyGen(seed, c, g.counties)
			for seq, o := range p {
				if o.kind == opIngest {
					bodies = append(bodies, bg.body(nil, seq))
				}
			}
		}
		return plans, bodies
	}
	for _, w := range workloads {
		p1, b1 := gen(w, 7)
		p2, b2 := gen(w, 7)
		if !reflect.DeepEqual(p1, p2) || !reflect.DeepEqual(b1, b2) {
			t.Errorf("%s: seed 7 produced different requests on two runs", w.name)
		}
		p3, b3 := gen(w, 8)
		if reflect.DeepEqual(p1, p3) && (len(b1) == 0 || reflect.DeepEqual(b1, b3)) {
			t.Errorf("%s: seeds 7 and 8 produced the same requests", w.name)
		}
		if len(p1) != clients || len(p1[0])+len(p1[1]) != 400 {
			t.Errorf("%s: plans %d clients, want %d with 400 requests in all", w.name, len(p1), clients)
		}
	}
}

// Generated records decode, validate, name their request, and fall
// inside the world's measurement window.
func TestBodiesDecodeInsideTheWorldWindow(t *testing.T) {
	g := testGeography()
	body := newBodyGen(3, 1, g.counties).body(nil, 17)
	rs, err := dataset.ReadNDJSON(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != batchRecords {
		t.Fatalf("%d records, want %d", len(rs), batchRecords)
	}
	end := worldStart.Add(time.Duration(worldHours) * time.Hour)
	for _, r := range rs {
		if r.Time.Before(worldStart) || !r.Time.Before(end) {
			t.Errorf("record %s at %v, outside [%v, %v)", r.ID, r.Time, worldStart, end)
		}
		if c, seq, ok := requestOf(r.ID); !ok || c != 1 || seq != 17 {
			t.Errorf("record %s names request (%d, %d, %v), want (1, 17)", r.ID, c, seq, ok)
		}
	}
	for _, w := range workloads {
		for _, p := range plan(w, g, 3, 200) {
			for _, o := range p {
				if from, to := o.window(); !from.IsZero() && (to.Sub(from) < minWindowHours*time.Hour || to.After(end)) {
					t.Errorf("%s: window [%v, %v) too narrow or past the world", w.name, from, to)
				}
			}
		}
	}
}

func TestSelfTimesSubtractChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Start: 0, End: 100},
		{ID: 1, Start: 10, End: 40, Parents: []int{0}},
		{ID: 2, Start: 30, End: 60, Parents: []int{0}},
		{ID: 3, Start: 20, End: 25, Parents: []int{1}},
	}
	got := selfTimes(spans)
	if want := []int64{50, 25, 30, 5}; !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}

// The replica cross-check compares ratios relatively, except where a
// ratio rests on a handful of events.
func TestCrossCheckAgreement(t *testing.T) {
	for _, tc := range []struct {
		sn, sd, rn, rd uint64
		want           bool
	}{
		{2227, 12129, 2215, 12122, true},  // mixed hit ratio, 0.5% apart
		{2227, 12129, 1900, 12122, false}, // 15% apart
		{7986, 8000, 7991, 8000, true},    // fsyncs per batch
		{7986, 8000, 4000, 8000, false},   // half the fsyncs
		{2, 768, 4, 768, true},            // scan's few hits: 2 events apart
		{2, 768, 40, 768, false},          // 38 events apart
	} {
		if got := agree(tc.sn, tc.sd, tc.rn, tc.rd); got != tc.want {
			t.Errorf("agree(%d/%d, %d/%d) = %v, want %v", tc.sn, tc.sd, tc.rn, tc.rd, got, tc.want)
		}
	}
}

// TestSmoke builds iqbserver, runs every workload at 1/100 scale and
// one traced workload, and checks that each run passes its checks and
// emits exactly the metrics BENCHMARK.json names.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the server")
	}
	b := readBenchmarkJSON(t)
	work := t.TempDir()
	bin, err := buildServer(context.Background(), work)
	if err != nil {
		t.Fatal(err)
	}
	runs := [][]string{}
	for _, w := range b.Workloads {
		runs = append(runs, []string{"--workload", w.Name, "--trace", "0"})
	}
	runs = append(runs, []string{"--workload", "mixed", "--trace", "1"})
	for _, args := range runs {
		var out bytes.Buffer
		args = append(args, "--seed", "5", "--smoke", "--server", bin, "--work", work)
		code, err := run(context.Background(), args, &out)
		if code != 0 || err != nil {
			t.Fatalf("%v: exit %d, %v\n%s", args, code, err, out.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res lastLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("%v: last line: %v", args, err)
		}
		want := map[string]string{}
		names := b.EndToEnd
		if args[3] == "1" {
			names = b.PerLayer
		}
		for _, m := range names {
			want[m.Name] = m.Unit
		}
		got := map[string]string{}
		for name, m := range res.Metrics {
			got[name] = m.Unit
		}
		if !res.Correct || res.Attempted < 1 || !reflect.DeepEqual(got, want) {
			t.Errorf("%v: correct %v, attempted %d, metrics %v, want %v", args, res.Correct, res.Attempted, got, want)
		}
	}
}
