package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// healthTimeout bounds how long a server may take to become healthy.
const healthTimeout = 120 * time.Second

// buildServer compiles iqbserver from the enclosing checkout into dir.
func buildServer(ctx context.Context, dir string) (string, error) {
	bin := filepath.Join(dir, "iqbserver")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "iqb/cmd/iqbserver")
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building iqbserver: %w\n%s", err, out)
	}
	return bin, nil
}

// server is one running iqbserver process.
type server struct {
	cmd    *exec.Cmd
	base   string
	exited chan error
	logf   *os.File
}

// startServer execs iqbserver on a fresh loopback port and waits until
// /v1/health answers, returning the seconds from exec to healthy.
func startServer(bin, dataDir, logPath string, args []string) (*server, float64, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	addr := l.Addr().String()
	if err := l.Close(); err != nil {
		return nil, 0, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr, "-data-dir", dataDir}, args...)...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	// The server must not outlive the benchmark, however it ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, fmt.Errorf("starting iqbserver: %w", err)
	}
	s := &server{cmd: cmd, base: "http://" + addr, exited: make(chan error, 1), logf: logf}
	go func() { s.exited <- cmd.Wait() }()

	probe := &http.Client{Timeout: time.Second}
	deadline := start.Add(healthTimeout)
	for {
		resp, err := probe.Get(s.base + "/v1/health")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				probe.CloseIdleConnections()
				return s, time.Since(start).Seconds(), nil
			}
		}
		select {
		case err := <-s.exited:
			s.exited <- err
			logf.Close()
			return nil, 0, fmt.Errorf("iqbserver exited before becoming healthy (%v); see %s", err, logPath)
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.kill()
			return nil, 0, fmt.Errorf("iqbserver not healthy after %v; see %s", healthTimeout, logPath)
		}
	}
}

// kill SIGKILLs the server and waits for it to exit.
func (s *server) kill() {
	// Signal fails only when the process already exited, and the wait
	// below returns either way.
	_ = s.cmd.Process.Signal(syscall.SIGKILL)
	err := <-s.exited
	s.exited <- err
	s.logf.Close()
}

// procCPU is the server's user+system CPU time in milliseconds, from
// /proc/<pid>/stat (clock ticks of 10 ms, the Linux USER_HZ).
func (s *server) procCPU() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	i := bytes.LastIndexByte(raw, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(raw[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return (utime + stime) * 10, nil
}

// peakRSSMB is the server's VmHWM in MB.
func (s *server) peakRSSMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// health is the part of /v1/health the benchmark reads.
type health struct {
	Records     int `json:"records"`
	Persistence *struct {
		WALSinceSnapshotBytes int64 `json:"wal_since_snapshot_bytes"`
		WALWrite              struct {
			Fsyncs       uint64 `json:"fsyncs"`
			GroupCommits uint64 `json:"group_commits"`
		} `json:"wal_write"`
	} `json:"persistence"`
	Cache *struct {
		Hits   uint64 `json:"hits"`
		Misses uint64 `json:"misses"`
	} `json:"cache"`
	Ingest *struct {
		AcceptedBatches uint64 `json:"accepted_batches"`
		AcceptedRecords uint64 `json:"accepted_records"`
		Drains          uint64 `json:"drains"`
	} `json:"ingest"`
}

// counters flattens the health counters the cross-check compares, plus
// the snapshot count from /metrics.
type counters struct {
	Fsyncs          uint64 `json:"fsyncs"`
	GroupCommits    uint64 `json:"group_commits"`
	Drains          uint64 `json:"drains"`
	AcceptedBatches uint64 `json:"accepted_batches"`
	AcceptedRecords uint64 `json:"accepted_records"`
	Hits            uint64 `json:"cache_hits"`
	Misses          uint64 `json:"cache_misses"`
	Snapshots       uint64 `json:"snapshots"`
}

// snapshotsCut reads iqb_snapshots_total from the server's /metrics.
func snapshotsCut(hc *http.Client, base string) (uint64, error) {
	body, err := get(hc, base, "/metrics")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, "iqb_snapshots_total "); ok {
			f, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
			return uint64(f), err
		}
	}
	return 0, errors.New("no iqb_snapshots_total in /metrics")
}

func (h health) counters() counters {
	var c counters
	if p := h.Persistence; p != nil {
		c.Fsyncs, c.GroupCommits = p.WALWrite.Fsyncs, p.WALWrite.GroupCommits
	}
	if ic := h.Ingest; ic != nil {
		c.Drains, c.AcceptedBatches, c.AcceptedRecords = ic.Drains, ic.AcceptedBatches, ic.AcceptedRecords
	}
	if cc := h.Cache; cc != nil {
		c.Hits, c.Misses = cc.Hits, cc.Misses
	}
	return c
}

func (c counters) minus(o counters) counters {
	return counters{
		Fsyncs:          c.Fsyncs - o.Fsyncs,
		GroupCommits:    c.GroupCommits - o.GroupCommits,
		Drains:          c.Drains - o.Drains,
		AcceptedBatches: c.AcceptedBatches - o.AcceptedBatches,
		AcceptedRecords: c.AcceptedRecords - o.AcceptedRecords,
		Hits:            c.Hits - o.Hits,
		Misses:          c.Misses - o.Misses,
		Snapshots:       c.Snapshots - o.Snapshots,
	}
}

// get fetches path and returns the body, failing on any status but 200.
func get(hc *http.Client, base, path string) ([]byte, error) {
	resp, err := hc.Get(base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}

func getJSON(hc *http.Client, base, path string, v any) error {
	body, err := get(hc, base, path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	return nil
}

// fetchGeography reads the region set from /v1/regions.
func fetchGeography(hc *http.Client, base string) (geography, error) {
	var rows []struct {
		Code  string `json:"code"`
		Level string `json:"level"`
	}
	if err := getJSON(hc, base, "/v1/regions", &rows); err != nil {
		return geography{}, err
	}
	var g geography
	for _, r := range rows {
		g.add(r.Code, r.Level)
	}
	g.sort()
	return g, nil
}
