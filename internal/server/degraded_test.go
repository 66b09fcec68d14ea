package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"censuslink/internal/census"
	"censuslink/internal/linkage"
	"censuslink/internal/obs"
	"censuslink/internal/store"

	"censuslink/internal/server/api"
)

// flakyStore is a ResultStore + Ping whose medium can be switched off, for
// driving the degraded-mode state machine deterministically (a real
// unreadable directory cannot be simulated with permissions here, since
// tests run as root).
type flakyStore struct {
	mu      sync.Mutex
	failing bool
	saved   map[string]*linkage.Result
	saves   int
}

func newFlakyStore() *flakyStore {
	return &flakyStore{saved: make(map[string]*linkage.Result)}
}

func (f *flakyStore) fail(v bool) {
	f.mu.Lock()
	f.failing = v
	f.mu.Unlock()
}

func (f *flakyStore) key(cfgHash string, oldDS, newDS *census.Dataset) string {
	return fmt.Sprintf("%s|%d|%d", cfgHash, oldDS.Year, newDS.Year)
}

func (f *flakyStore) LoadResult(cfgHash string, oldDS, newDS *census.Dataset) (*linkage.Result, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failing {
		return nil, errors.New("flaky store: medium down")
	}
	return f.saved[f.key(cfgHash, oldDS, newDS)], nil
}

func (f *flakyStore) SaveResult(cfgHash string, oldDS, newDS *census.Dataset, res *linkage.Result) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failing {
		return errors.New("flaky store: medium down")
	}
	f.saves++
	f.saved[f.key(cfgHash, oldDS, newDS)] = res
	return nil
}

func (f *flakyStore) Ping() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failing {
		return errors.New("flaky store: medium down")
	}
	return nil
}

func (f *flakyStore) saveCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.saves
}

// TestDegradedModeServesAndRecovers walks the whole state machine: a down
// store degrades the server without taking /v1 down, write-throughs pause,
// /healthz and the gauge report it, and when the store answers again the
// server recovers on its own and flushes the results computed during the
// outage.
func TestDegradedModeServesAndRecovers(t *testing.T) {
	fs := newFlakyStore()
	fs.fail(true)
	cfg := testConfig(t)
	cfg.Store = fs
	stats := obs.NewStats(nil)
	cfg.Stats = stats
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Abort()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Warm start hit the dead medium once per pair (2); one failed probe
	// more crosses storeDegradedAfter.
	if srv.health.isDegraded() {
		t.Fatal("degraded after warm start alone; threshold too low")
	}
	srv.cache.refreshOnce(context.Background())
	if !srv.health.isDegraded() {
		t.Fatalf("not degraded after %d consecutive failures", storeDegradedAfter)
	}

	// Serving continues from the pipeline; the write-through is skipped
	// rather than burning its retry budget against a dead medium.
	if status, body := get(t, ts, "/v1/links/1871/1881/records"); status != http.StatusOK {
		t.Fatalf("degraded /v1 query: status %d: %s", status, body)
	}
	if n := fs.saveCount(); n != 0 {
		t.Errorf("%d write-throughs while degraded, want 0", n)
	}

	var h struct {
		Status string `json:"status"`
		Store  string `json:"store"`
	}
	getJSON(t, ts, "/healthz", &h)
	if h.Status != "ok" || h.Store != "degraded" {
		t.Errorf(`/healthz = {status %q, store %q}, want {"ok", "degraded"}`, h.Status, h.Store)
	}
	if _, body := get(t, ts, "/metrics"); !strings.Contains(string(body), "censuslink_store_degraded 1") {
		t.Error("/metrics does not report censuslink_store_degraded 1")
	}

	// Medium returns: the next probe recovers and flushes the outage's
	// computed pair into the store.
	fs.fail(false)
	srv.cache.refreshOnce(context.Background())
	if srv.health.isDegraded() {
		t.Fatal("still degraded after a successful probe")
	}
	if n := fs.saveCount(); n != 1 {
		t.Errorf("recovery flushed %d results, want 1", n)
	}
	if got := stats.Total(obs.StoreRecoveries); got != 1 {
		t.Errorf("store_recoveries = %d, want 1", got)
	}
	if got := stats.Total(obs.StoreIOErrors); got < int64(storeDegradedAfter) {
		t.Errorf("store_io_errors = %d, want >= %d", got, storeDegradedAfter)
	}
	getJSON(t, ts, "/healthz", &h)
	if h.Store != "ok" {
		t.Errorf(`/healthz store = %q after recovery, want "ok"`, h.Store)
	}
	if _, body := get(t, ts, "/metrics"); !strings.Contains(string(body), "censuslink_store_degraded 0") {
		t.Error("/metrics does not report censuslink_store_degraded 0 after recovery")
	}
}

// TestReplicaRefreshSharesStore: two servers over one store directory are
// the read-replica deployment. The replica whose pipeline is forbidden to
// run must adopt, within a refresh interval, the snapshot its peer computed
// — and serve it.
func TestReplicaRefreshSharesStore(t *testing.T) {
	dir := t.TempDir()
	stA, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfgA := testConfig(t)
	cfgA.Store = stA
	srvA, err := New(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	defer srvA.Abort()
	tsA := httptest.NewServer(srvA.Handler())
	defer tsA.Close()

	stB, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfgB := testConfig(t)
	cfgB.Store = stB
	cfgB.StoreRefresh = 5 * time.Millisecond
	statsB := obs.NewStats(nil)
	cfgB.Stats = statsB
	cfgB.linkFn = func(ctx context.Context, old, new *census.Dataset, lc linkage.Config) (*linkage.Result, error) {
		t.Errorf("replica B computed %d-%d itself instead of adopting A's snapshot", old.Year, new.Year)
		return nil, errors.New("replica must not compute")
	}
	srvB, err := New(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	defer srvB.Abort()
	tsB := httptest.NewServer(srvB.Handler())
	defer tsB.Close()

	// A computes and persists the pair; B's refresh loop adopts it.
	if status, body := get(t, tsA, "/v1/links/1871/1881/records"); status != http.StatusOK {
		t.Fatalf("replica A: status %d: %s", status, body)
	}
	deadline := time.Now().Add(5 * time.Second)
	for statsB.Total(obs.StoreRefreshLoads) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("replica B never adopted A's snapshot from the shared store")
		}
		time.Sleep(5 * time.Millisecond)
	}
	var rl struct {
		Page api.Page `json:"page"`
	}
	getJSON(t, tsB, "/v1/links/1871/1881/records", &rl)
	if rl.Page.Total == 0 {
		t.Error("replica B served an empty adopted pair")
	}
}

// TestIngestWhileDegradedFlushedOnRecovery: an ingest during a store outage
// still links and serves the new pair, skips its write-through, and the
// recovery flush persists it once the store answers again.
func TestIngestWhileDegradedFlushedOnRecovery(t *testing.T) {
	fs := newFlakyStore()
	fs.fail(true)
	cfg := testConfig(t)
	cfg.Store = fs
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Abort()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	srv.cache.refreshOnce(context.Background())
	if !srv.health.isDegraded() {
		t.Fatalf("not degraded after %d consecutive failures", storeDegradedAfter)
	}

	fourth := agedDataset(t, cfg.Series.Dataset(1891), "1891", "1901", 1901)
	if status, body := postCSV(t, ts, 1901, csvBody(t, fourth)); status != http.StatusCreated {
		t.Fatalf("degraded ingest = %d: %s", status, body)
	}
	if n := fs.saveCount(); n != 0 {
		t.Errorf("%d write-throughs while degraded, want 0", n)
	}

	fs.fail(false)
	srv.cache.refreshOnce(context.Background())
	if srv.health.isDegraded() {
		t.Fatal("still degraded after a successful probe")
	}
	if n := fs.saveCount(); n != 1 {
		t.Errorf("recovery flushed %d results, want 1 (the ingested pair)", n)
	}
	fs.mu.Lock()
	_, ok := fs.saved[fmt.Sprintf("%s|1891|1901", cfg.Linkage.Fingerprint())]
	fs.mu.Unlock()
	if !ok {
		t.Error("the ingested 1891-1901 pair is not in the store after recovery")
	}
}
