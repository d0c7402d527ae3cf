package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// phaseTimeout stops a measured phase that runs far past its nominal
// length, so one run stays inside its time budget on a stalled box.
const phaseTimeout = 100 * time.Second

// phase is what one measured phase produced.
type phase struct {
	lat       [numOps]dist // latency in ms of each completed request
	attempted int
	failed    int
	firstErr  string
	accepted  int // records acknowledged by 202 responses
	seconds   float64
}

func (p *phase) completed() int { return p.attempted - p.failed }

// pooled is every completed request's latency, all ops together.
func (p *phase) pooled() dist {
	var all dist
	for _, d := range p.lat {
		all = append(all, d...)
	}
	return all
}

// merge folds one client's tallies into p.
func (p *phase) merge(c *phase) {
	for k := range p.lat {
		p.lat[k] = append(p.lat[k], c.lat[k]...)
	}
	p.attempted += c.attempted
	p.failed += c.failed
	p.accepted += c.accepted
	if p.firstErr == "" {
		p.firstErr = c.firstErr
	}
}

func (p *phase) fail(format string, args ...any) {
	p.failed++
	if p.firstErr == "" {
		p.firstErr = fmt.Sprintf(format, args...)
	}
}

// httpPhase drives the server with one closed-loop client per plan, each
// on its own keep-alive connection. Bodies are read into io.Discard;
// answers are verified after the phase, not in the hot loop.
func httpPhase(ctx context.Context, base string, plans [][]op, gens []*bodyGen) *phase {
	ctx, cancel := context.WithTimeout(ctx, phaseTimeout)
	defer cancel()
	outs := make([]phase, len(plans))
	var wg sync.WaitGroup
	start := time.Now()
	for c := range plans {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
			defer tr.CloseIdleConnections()
			hc := &http.Client{Transport: tr}
			out := &outs[c]
			var buf []byte
			for seq, o := range plans[c] {
				if ctx.Err() != nil {
					rest := len(plans[c]) - seq
					out.attempted += rest
					out.failed += rest
					out.firstErr = fmt.Sprintf("phase stopped after %v with %d requests unsent", phaseTimeout, rest)
					return
				}
				out.attempted++
				var req *http.Request
				var err error
				want := http.StatusOK
				if o.kind == opIngest {
					buf = gens[c].body(buf[:0], seq)
					req, err = http.NewRequestWithContext(ctx, http.MethodPost, base+o.path(), bytes.NewReader(buf))
					want = http.StatusAccepted
				} else {
					req, err = http.NewRequestWithContext(ctx, http.MethodGet, base+o.path(), nil)
				}
				if err != nil {
					out.fail("building %s: %v", o.kind, err)
					continue
				}
				t0 := time.Now()
				resp, err := hc.Do(req)
				if err != nil {
					out.fail("%s: %v", o.kind, err)
					continue
				}
				_, err = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				d := time.Since(t0)
				if err != nil || resp.StatusCode != want {
					out.fail("%s %s: status %d (%v)", o.kind, o.path(), resp.StatusCode, err)
					continue
				}
				out.lat[o.kind] = append(out.lat[o.kind], float64(d)/1e6)
				if o.kind == opIngest {
					out.accepted += batchRecords
				}
			}
		}(c)
	}
	wg.Wait()
	p := &phase{seconds: time.Since(start).Seconds()}
	for c := range outs {
		p.merge(&outs[c])
	}
	return p
}

// untracedRun is one workload against the real server.
type untracedRun struct {
	setupS     []float64
	recoverS   float64
	phase      *phase
	cpuMSPerOp float64
	peakRSSMB  float64
	counters   counters          // /v1/health counter deltas over the phase
	answers    map[string][]byte // the fixed answer sample after the phase
}

// setupRuns is how many times a full run sets the server up on a fresh
// data dir; setup_s is the median.
const setupRuns = 5

// runUntraced boots iqbserver setups times on fresh data dirs (timing
// each set-up), drives the last one through the measured phase, then
// SIGKILLs it and restarts it once on the same dir with the score cache
// off (timing the restart), and checks that every acknowledged record
// survived and that every answer is byte-identical.
func runUntraced(ctx context.Context, cfg config, w workload, setups int, chk *checker) (*untracedRun, error) {
	runDir, err := os.MkdirTemp(cfg.work, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)
	logPath := filepath.Join(runDir, "server.log")
	args := w.serverArgs()
	run := &untracedRun{}

	var srv *server
	defer func() {
		if srv != nil {
			srv.kill()
		}
	}()
	dataDir := filepath.Join(runDir, "data")
	// boot SIGKILLs the running server, if any, and starts another on the
	// data dir, emptied first when fresh.
	boot := func(fresh bool, args []string) (float64, error) {
		if srv != nil {
			srv.kill()
			srv = nil
		}
		if fresh {
			if err := os.RemoveAll(dataDir); err != nil {
				return 0, err
			}
		}
		var secs float64
		var err error
		srv, secs, err = startServer(cfg.server, dataDir, logPath, args)
		return secs, err
	}
	for range setups {
		secs, err := boot(true, args)
		if err != nil {
			return nil, err
		}
		run.setupS = append(run.setupS, secs)
	}

	hc := &http.Client{Timeout: 60 * time.Second}
	g, err := fetchGeography(hc, srv.base)
	if err != nil {
		return nil, err
	}
	before, c0, err := readCounters(hc, srv.base)
	if err != nil {
		return nil, err
	}
	gens := make([]*bodyGen, clients)
	for c := range gens {
		gens[c] = newBodyGen(cfg.seed, c, g.counties)
	}
	plans := plan(w, g, cfg.seed, cfg.requests(w))
	cpu0, err := srv.procCPU()
	if err != nil {
		return nil, err
	}
	run.phase = httpPhase(ctx, srv.base, plans, gens)
	cpu1, err := srv.procCPU()
	if err != nil {
		return nil, err
	}
	if run.peakRSSMB, err = srv.peakRSSMB(); err != nil {
		return nil, err
	}
	run.cpuMSPerOp = (cpu1 - cpu0) / float64(max(run.phase.completed(), 1))
	after, c1, err := readCounters(hc, srv.base)
	if err != nil {
		return nil, err
	}
	run.counters = c1.minus(c0)

	want := before.Records + run.phase.accepted
	chk.expect("accepted-equals-visible", after.Records == want,
		"records after the phase %d, want %d before + %d accepted", after.Records, before.Records, run.phase.accepted)
	if run.answers, err = fetchAnswers(hc, srv.base, g); err != nil {
		return nil, err
	}
	chk.rankingSortedComplete("ranking-sorted-and-complete", run.answers["/v1/ranking"], g.counties)

	if w.snapshotWALBytes > 0 {
		if err := awaitSnapshots(hc, srv.base, w.snapshotWALBytes); err != nil {
			return nil, err
		}
	}
	if run.recoverS, err = boot(false, append(args, "-score-cache=false")); err != nil {
		return nil, fmt.Errorf("restart after SIGKILL: %w", err)
	}
	var recovered health
	if err := getJSON(hc, srv.base, "/v1/health", &recovered); err != nil {
		return nil, err
	}
	chk.expect("accepted-equals-durable", recovered.Records == want,
		"records after SIGKILL and restart %d, want %d before + %d accepted", recovered.Records, before.Records, run.phase.accepted)
	uncached, err := fetchAnswers(hc, srv.base, g)
	if err != nil {
		return nil, err
	}
	chk.sameAnswers("recovered-uncached-equals-cached", uncached, run.answers)
	return run, nil
}

// readCounters reads /v1/health and the counters the report and the
// replica cross-check use.
func readCounters(hc *http.Client, base string) (health, counters, error) {
	var h health
	if err := getJSON(hc, base, "/v1/health", &h); err != nil {
		return h, counters{}, err
	}
	c := h.counters()
	var err error
	c.Snapshots, err = snapshotsCut(hc, base)
	return h, c, err
}

// awaitSnapshots waits until the server owes no growth snapshot, so the
// SIGKILL never lands in the middle of one.
func awaitSnapshots(hc *http.Client, base string, threshold int) error {
	deadline := time.Now().Add(healthTimeout)
	for {
		var h health
		if err := getJSON(hc, base, "/v1/health", &h); err != nil {
			return err
		}
		if h.Persistence == nil || h.Persistence.WALSinceSnapshotBytes < int64(threshold) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("growth snapshot still owed after %v", healthTimeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// fetchAnswers fetches the fixed answer sample: the ranking and every
// region's unbounded score.
func fetchAnswers(hc *http.Client, base string, g geography) (map[string][]byte, error) {
	out := map[string][]byte{}
	paths := []string{"/v1/ranking"}
	for _, r := range g.regions {
		paths = append(paths, op{kind: opScore, region: r}.path())
	}
	for _, p := range paths {
		body, err := get(hc, base, p)
		if err != nil {
			return nil, err
		}
		out[p] = body
	}
	return out, nil
}

func sha256Hex(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// check is one named correctness check's verdict.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// checker collects verdicts; a failing check names itself.
type checker struct {
	checks []check
}

func (c *checker) expect(name string, ok bool, format string, args ...any) {
	ck := check{Name: name, OK: ok}
	if !ok {
		ck.Detail = fmt.Sprintf(format, args...)
	}
	c.checks = append(c.checks, ck)
}

func (c *checker) ok() bool {
	for _, ck := range c.checks {
		if !ck.OK {
			return false
		}
	}
	return true
}

// sameAnswers checks that two answer samples are byte-identical.
func (c *checker) sameAnswers(name string, got, want map[string][]byte) {
	for _, p := range sortedKeys(want) {
		if !bytes.Equal(got[p], want[p]) {
			c.expect(name, false, "%s differs (%d bytes vs %d)", p, len(got[p]), len(want[p]))
			return
		}
	}
	c.expect(name, len(got) == len(want), "answer sets differ in size: %d vs %d", len(got), len(want))
}

// rankingSortedComplete checks a /v1/ranking body: ranks run 1..n,
// scores descend with ties broken by region code, nothing was omitted,
// and every county appears exactly once.
func (c *checker) rankingSortedComplete(name string, body []byte, counties []string) {
	var rk struct {
		Rows []struct {
			Rank   int     `json:"rank"`
			Region string  `json:"region"`
			IQB    float64 `json:"iqb"`
		} `json:"rows"`
		Omitted int `json:"omitted"`
	}
	if err := json.Unmarshal(body, &rk); err != nil {
		c.expect(name, false, "decoding ranking: %v", err)
		return
	}
	if rk.Omitted != 0 || len(rk.Rows) != len(counties) {
		c.expect(name, false, "%d rows and %d omitted, want %d rows", len(rk.Rows), rk.Omitted, len(counties))
		return
	}
	seen := map[string]bool{}
	for i, r := range rk.Rows {
		seen[r.Region] = true
		if r.Rank != i+1 {
			c.expect(name, false, "row %d has rank %d", i, r.Rank)
			return
		}
		if i > 0 {
			p := rk.Rows[i-1]
			if p.IQB < r.IQB || (p.IQB == r.IQB && p.Region >= r.Region) {
				c.expect(name, false, "rows %d and %d out of order", i-1, i)
				return
			}
		}
	}
	for _, cty := range counties {
		if !seen[cty] {
			c.expect(name, false, "county %s missing", cty)
			return
		}
	}
	c.expect(name, true, "")
}
