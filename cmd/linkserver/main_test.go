package main

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"censuslink/internal/census"
	"censuslink/internal/paperexample"
)

// syncBuffer lets the test poll run's stdout while run keeps writing.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// writeSeries lays the paper's running example out as a census series dir.
func writeSeries(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	s := census.NewSeries(paperexample.Old(), paperexample.New())
	if err := census.WriteSeriesDir(dir, s); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestRunServesAndShutsDown boots the real server on an ephemeral port,
// queries it over HTTP, then cancels the context (the SIGTERM path) and
// verifies the graceful drain and the final stats flush.
func TestRunServesAndShutsDown(t *testing.T) {
	dir := writeSeries(t)
	statsPath := filepath.Join(t.TempDir(), "report.json")
	var out syncBuffer
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			"-dir", dir, "-addr", "127.0.0.1:0", "-eager", "-stats", statsPath,
		}, &out)
	}()

	// Wait for the listener line, then extract the live address.
	addrRE := regexp.MustCompile(`listening on (http://[^\s]+)`)
	var base string
	deadline := time.Now().Add(10 * time.Second)
	for base == "" {
		if m := addrRE.FindStringSubmatch(out.String()); m != nil {
			base = m[1]
			break
		}
		select {
		case err := <-done:
			t.Fatalf("run exited early: %v\n%s", err, out.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("no listening line after 10s:\n%s", out.String())
		}
		time.Sleep(10 * time.Millisecond)
	}

	// -eager warmed the cache; /healthz reports it and queries succeed.
	var h struct {
		Status      string `json:"status"`
		PairsCached int    `json:"pairs_cached"`
	}
	getJSON(t, base+"/healthz", &h)
	if h.Status != "ok" || h.PairsCached != 1 {
		t.Errorf("healthz = %+v, want ok with 1 cached pair", h)
	}
	var rl struct {
		Page struct {
			Total int `json:"total"`
		} `json:"page"`
	}
	getJSON(t, base+"/v1/links/1871/1881/records", &rl)
	if rl.Page.Total == 0 {
		t.Error("no record links served")
	}
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(metrics), "censuslink_pipeline_total") {
		t.Errorf("/metrics missing pipeline counters:\n%s", metrics)
	}

	// SIGTERM path: cancel drains and exits cleanly, flushing the report.
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v\n%s", err, out.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("run did not shut down:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "shutdown complete") {
		t.Errorf("missing shutdown line:\n%s", out.String())
	}
	data, err := os.ReadFile(statsPath)
	if err != nil {
		t.Fatalf("stats report not flushed: %v", err)
	}
	var rep struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("bad stats report: %v\n%s", err, data)
	}
	if len(rep.Counters) == 0 {
		t.Errorf("stats report has no counters:\n%s", data)
	}
}

// bootServer starts run() in the background with the given extra flags and
// returns the live base URL once the listener line appears. Cleanup cancels
// the run context and waits for the graceful exit.
func bootServer(t *testing.T, extra ...string) string {
	t.Helper()
	dir := writeSeries(t)
	var out syncBuffer
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, append([]string{"-dir", dir, "-addr", "127.0.0.1:0"}, extra...), &out)
	}()
	t.Cleanup(func() {
		cancel()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Errorf("run did not shut down:\n%s", out.String())
		}
	})
	addrRE := regexp.MustCompile(`listening on (http://[^\s]+)`)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if m := addrRE.FindStringSubmatch(out.String()); m != nil {
			return m[1]
		}
		select {
		case err := <-done:
			t.Fatalf("run exited early: %v\n%s", err, out.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("no listening line after 10s:\n%s", out.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStalledHeaderDropped: a client that opens a connection and never
// finishes its request header is cut off by ReadHeaderTimeout instead of
// holding a server goroutine forever (the slowloris regression — the
// listener used to be built with no timeouts at all).
func TestStalledHeaderDropped(t *testing.T) {
	base := bootServer(t, "-read-header-timeout", "200ms")

	conn, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A partial request header: no terminating blank line, then silence.
	if _, err := conn.Write([]byte("GET /healthz HTTP/1.1\r\nHost: stalled\r\n")); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	n, err := conn.Read(make([]byte, 256))
	if err == nil || n > 0 {
		t.Fatalf("server answered a half-written header: n=%d err=%v", n, err)
	}
	if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatal("connection still open 5s after the 200ms header timeout")
	}
	// The server dropped us — promptly, not at some multi-second default.
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("connection dropped only after %v", elapsed)
	}

	// A well-formed client on a fresh connection is unaffected.
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz after stalled peer: %d", resp.StatusCode)
	}
}

// TestRunFlagErrors: bad invocations fail fast instead of serving.
func TestRunFlagErrors(t *testing.T) {
	var out syncBuffer
	if err := run(context.Background(), nil, &out); err == nil {
		t.Error("missing -dir accepted")
	}
	if err := run(context.Background(), []string{"-dir", t.TempDir()}, &out); err == nil {
		t.Error("empty series dir accepted")
	}
	if err := run(context.Background(), []string{
		"-dir", writeSeries(t), "-blocking", "nope", "-addr", "127.0.0.1:0",
	}, &out); err == nil {
		t.Error("bad -blocking accepted")
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d: %s", url, resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, v); err != nil {
		t.Fatalf("GET %s: bad JSON: %v", url, err)
	}
}
