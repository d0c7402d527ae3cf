// Package telemetry is the server's self-observability registry: a
// process-wide catalog of counters, gauges, and latency histograms,
// served in Prometheus text exposition format from GET /metrics.
//
// The histogram quantiles are computed from the repo's own
// stats.DDSketch — the same mergeable quantile sketch the paper's
// reproduction serves measurement data from — so the server's p50/p90/
// p99 latencies dogfood the data structure under study instead of
// pulling in a metrics dependency. A Histogram is exposed as a
// Prometheus summary: one series per configured quantile plus _sum and
// _count.
//
// # Shape
//
// Metrics come in two flavors:
//
//   - Owned state: Counter (monotone, atomic), Gauge (atomic), and
//     Histogram (DDSketch + sum/count under a short mutex). These are
//     cheap enough for hot paths: a counter bump is one atomic add, a
//     histogram observation one short critical section with no
//     allocation.
//
//   - Collectors: CounterFunc and GaugeFunc sample a value at scrape
//     time. Subsystems that already keep counters (the WAL's
//     lock-free write stats, the score cache's hit/miss counters)
//     register collectors instead of double-counting — the scrape
//     reads the authoritative number.
//
// Collector callbacks run while the registry lock is held and must not
// block: reading an atomic or taking a short in-memory mutex is fine,
// disk or lock-held-across-fsync paths are not. That contract is why
// persist's metadata readers stay off the WAL's append mutex — a
// scrape must complete while an fsync is in flight.
//
// All methods are safe for concurrent use. A nil *Counter, *Gauge, or
// *Histogram is a valid no-op, so instrumented subsystems run
// unchanged when no registry is attached.
//
// # Clock
//
// Histogram.Time is the package's only wall-clock read — the telemetry
// boundary the walltime analyzer pins: durations measured here are
// observability output, never simulation or scoring input.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"iqb/internal/stats"
)

// Labels attach constant dimensions to a metric series (e.g.
// path="/v1/score"). Label sets are fixed at registration: the series
// space stays bounded by what the program registers, never by request
// contents.
type Labels map[string]string

// DefaultQuantiles are the summary quantiles a Histogram exposes when
// none are given.
var DefaultQuantiles = []float64{0.5, 0.9, 0.99}

// metricKind discriminates what a series is and how it is typed in the
// exposition.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindCounterFunc
	kindGaugeFunc
	kindHistogram
)

// typeName is the Prometheus TYPE for the kind.
func (k metricKind) typeName() string {
	switch k {
	case kindCounter, kindCounterFunc:
		return "counter"
	case kindGauge, kindGaugeFunc:
		return "gauge"
	case kindHistogram:
		return "summary"
	default:
		return "untyped"
	}
}

// Counter is a monotonically increasing count. The zero value of a nil
// pointer is a no-op.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (non-negative; a counter never decreases).
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value reads the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a value that can go up and down. A nil pointer is a no-op.
type Gauge struct {
	v atomic.Int64
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Add adds delta.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Set replaces the value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Value reads the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a latency/size distribution backed by a stats.DDSketch,
// exposed as a Prometheus summary with the registry-configured
// quantiles. A nil pointer is a no-op.
type Histogram struct {
	mu     sync.Mutex
	sketch *stats.DDSketch
	sum    float64
	count  uint64
}

// Observe records one value (e.g. seconds of latency). Negative and
// NaN values are ignored, matching the sketch's domain.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	if math.IsNaN(v) || v < 0 {
		return
	}
	h.mu.Lock()
	h.sketch.Add(v)
	h.sum += v
	h.count++
	h.mu.Unlock()
}

// Time starts a wall-clock measurement and returns a stop function
// that observes the elapsed seconds. This is the telemetry package's
// clock seam: callers in deterministic packages time through here
// instead of reading time.Now themselves.
func (h *Histogram) Time() func() {
	if h == nil {
		return func() {}
	}
	start := now()
	return func() { h.Observe(now().Sub(start).Seconds()) }
}

// now is the package's single wall-clock read; tests may not override
// it — telemetry output is explicitly outside the determinism contract.
//
//iqbvet:ignore walltime telemetry is the wall-clock boundary: latency observations are observability output, never simulation or scoring input
func now() time.Time { return time.Now() }

// snapshot captures the histogram state for one scrape.
func (h *Histogram) snapshot(qs []float64) (quants []float64, sum float64, count uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	quants = make([]float64, len(qs))
	for i, q := range qs {
		v, err := h.sketch.Quantile(q)
		if err != nil {
			v = 0 // empty sketch: summaries conventionally expose 0/NaN; 0 keeps parsers simple
		}
		quants[i] = v
	}
	return quants, h.sum, h.count
}

// series is one registered metric: a family name plus a fixed label
// set and the value source.
type series struct {
	name    string
	labels  string // canonical rendered label block, "" or `{k="v",...}`
	kind    metricKind
	help    string
	counter *Counter
	gauge   *Gauge
	fn      func() float64
	hist    *Histogram
}

// family groups every series sharing a metric name; HELP/TYPE are
// emitted once per family.
type family struct {
	name   string
	help   string
	kind   metricKind
	series []*series
}

// Registry is a process-wide metric catalog. Create with NewRegistry;
// all methods are safe for concurrent use.
type Registry struct {
	mu        sync.Mutex
	families  map[string]*family
	byID      map[string]*series // name + label block -> series
	quantiles []float64
}

// NewRegistry returns an empty registry using DefaultQuantiles for
// histogram exposition.
func NewRegistry() *Registry {
	return &Registry{
		families:  map[string]*family{},
		byID:      map[string]*series{},
		quantiles: append([]float64(nil), DefaultQuantiles...),
	}
}

// register adds (or idempotently returns) a series. Registering the
// same name+labels twice returns the original if kinds match, and
// panics otherwise: a kind collision is a programming error that would
// silently corrupt the exposition.
func (r *Registry) register(s *series) *series {
	id := s.name + s.labels
	r.mu.Lock()
	defer r.mu.Unlock()
	if have, ok := r.byID[id]; ok {
		if have.kind != s.kind {
			panic(fmt.Sprintf("telemetry: %s re-registered as %s (was %s)", id, s.kind.typeName(), have.kind.typeName()))
		}
		return have
	}
	f := r.families[s.name]
	if f == nil {
		f = &family{name: s.name, help: s.help, kind: s.kind}
		r.families[s.name] = f
	} else if f.kind != s.kind {
		panic(fmt.Sprintf("telemetry: family %s holds %s series, got %s", s.name, f.kind.typeName(), s.kind.typeName()))
	}
	f.series = append(f.series, s)
	r.byID[id] = s
	return s
}

// Counter registers (or returns) a counter series.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	s := r.register(&series{name: name, labels: renderLabels(labels), kind: kindCounter, help: help, counter: &Counter{}})
	return s.counter
}

// Gauge registers (or returns) a gauge series.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	s := r.register(&series{name: name, labels: renderLabels(labels), kind: kindGauge, help: help, gauge: &Gauge{}})
	return s.gauge
}

// CounterFunc registers a counter sampled at scrape time. fn must be
// fast and non-blocking (read an atomic, take a short in-memory lock)
// and must never decrease between scrapes.
func (r *Registry) CounterFunc(name, help string, labels Labels, fn func() float64) {
	r.register(&series{name: name, labels: renderLabels(labels), kind: kindCounterFunc, help: help, fn: fn})
}

// GaugeFunc registers a gauge sampled at scrape time; the same
// non-blocking contract as CounterFunc applies.
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) {
	r.register(&series{name: name, labels: renderLabels(labels), kind: kindGaugeFunc, help: help, fn: fn})
}

// Histogram registers (or returns) a DDSketch-backed summary series.
func (r *Registry) Histogram(name, help string, labels Labels) *Histogram {
	s := r.register(&series{
		name: name, labels: renderLabels(labels), kind: kindHistogram, help: help,
		hist: &Histogram{sketch: stats.NewDDSketch(stats.DefaultDDSketchAlpha)},
	})
	return s.hist
}

// renderLabels canonicalizes a label set: keys sorted, values escaped,
// rendered once at registration so scrapes only concatenate strings.
func renderLabels(labels Labels) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(labels[k]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabelValue applies the exposition-format escapes: backslash,
// double quote, and newline.
func escapeLabelValue(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}
