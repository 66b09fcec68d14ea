package server

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"censuslink/internal/census"
	"censuslink/internal/linkage"
	"censuslink/internal/obs"
	"censuslink/internal/store"

	"censuslink/internal/server/api"
)

// populateStore links every pair of the series once, directly, and writes
// the snapshots — the state a previous server run would have left behind.
func populateStore(t *testing.T, dir string, series *census.Series, cfg linkage.Config) {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfgHash := cfg.Fingerprint()
	for _, pair := range series.Pairs() {
		res, err := linkage.LinkContext(context.Background(), pair[0], pair[1], cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.SaveResult(cfgHash, pair[0], pair[1], res); err != nil {
			t.Fatal(err)
		}
	}
}

// TestServerWarmStartFromStore: a server booted over a fully populated
// store must answer every endpoint — including the evolution bundle —
// without running the pipeline once, and report the warm pairs on /healthz
// and the hit counters on /metrics.
func TestServerWarmStartFromStore(t *testing.T) {
	cfg := testConfig(t)
	dir := t.TempDir()
	populateStore(t, dir, cfg.Series, cfg.Linkage)

	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Store = st
	cfg.linkFn = func(ctx context.Context, old, new *census.Dataset, lc linkage.Config) (*linkage.Result, error) {
		t.Errorf("pipeline invoked for %d-%d despite a warm store", old.Year, new.Year)
		return nil, errors.New("must not compute")
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Abort()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var h struct {
		PairsCached int `json:"pairs_cached"`
	}
	getJSON(t, ts, "/healthz", &h)
	if want := len(cfg.Series.Pairs()); h.PairsCached != want {
		t.Errorf("pairs_cached = %d at boot, want %d", h.PairsCached, want)
	}

	// Every query class must serve from the warmed cache, including the
	// bundle-backed endpoints that need all pair results at once.
	for _, p := range []string{
		"/v1/links/1871/1881/records",
		"/v1/links/1881/1891/records",
		"/v1/links/1871/1881/groups",
		"/v1/evolution/1871/1881/patterns",
		"/v1/households/1871/1871_a/timeline",
		"/v1/records/1871/1871_1/lifecycle",
		"/v1/timelines?min_span=2",
	} {
		if status, body := get(t, ts, p); status != http.StatusOK {
			t.Errorf("GET %s: status %d: %s", p, status, body)
		}
	}

	var rl struct {
		Page api.Page `json:"page"`
	}
	getJSON(t, ts, "/v1/links/1871/1881/records", &rl)
	if rl.Page.Total == 0 {
		t.Error("warm-started pair served no record links")
	}

	_, body := get(t, ts, "/metrics")
	for _, want := range []string{
		`censuslink_pipeline_total{name="store_hits"} 2`,
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if strings.Contains(string(body), `name="store_misses"`) {
		t.Error("/metrics reports store misses on a fully warm store")
	}
}

// TestServerWriteBackThenWarmStart: a server over an empty store computes
// and persists each pair it serves; a second server booted over the same
// directory serves them without computing — the restart round trip.
func TestServerWriteBackThenWarmStart(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}

	cfg := testConfig(t)
	cfg.Store = st
	stats := obs.NewStats(nil)
	cfg.Stats = stats
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	if status, body := get(t, ts, "/v1/links/1871/1881/records"); status != http.StatusOK {
		t.Fatalf("first server: status %d: %s", status, body)
	}
	ts.Close()
	srv.Abort()
	if got := stats.Total(obs.StoreMisses); got != int64(len(cfg.Series.Pairs())) {
		t.Errorf("first server store misses = %d, want %d", got, len(cfg.Series.Pairs()))
	}

	snaps, err := filepath.Glob(filepath.Join(dir, "snap_*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 1 {
		names, _ := os.ReadDir(dir)
		t.Fatalf("store holds %d snapshots after one pair was served, want 1 (%v)", len(snaps), names)
	}

	cfg2 := testConfig(t)
	cfg2.Store = st
	stats2 := obs.NewStats(nil)
	cfg2.Stats = stats2
	cfg2.linkFn = func(ctx context.Context, old, new *census.Dataset, lc linkage.Config) (*linkage.Result, error) {
		if old.Year == 1871 {
			t.Errorf("pair 1871-1881 recomputed despite its snapshot")
		}
		return linkage.LinkContext(ctx, old, new, lc)
	}
	srv2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Abort()
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()

	if status, body := get(t, ts2, "/v1/links/1871/1881/records"); status != http.StatusOK {
		t.Fatalf("second server: status %d: %s", status, body)
	}
	if got := stats2.Total(obs.StoreHits); got != 1 {
		t.Errorf("second server store hits = %d, want 1", got)
	}
	// The unlinked pair is a miss; querying it computes and writes it back.
	if got := stats2.Total(obs.StoreMisses); got != 1 {
		t.Errorf("second server store misses = %d, want 1", got)
	}
	if status, body := get(t, ts2, "/v1/links/1881/1891/records"); status != http.StatusOK {
		t.Fatalf("second server pair 2: status %d: %s", status, body)
	}
	snaps, err = filepath.Glob(filepath.Join(dir, "snap_*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 2 {
		t.Errorf("store holds %d snapshots after both pairs were served, want 2", len(snaps))
	}
}

// TestServerCorruptSnapshotRecomputed: a damaged snapshot must not poison
// the boot — the pair is counted corrupt, recomputed on demand and
// overwritten with a fresh snapshot.
func TestServerCorruptSnapshotRecomputed(t *testing.T) {
	cfg := testConfig(t)
	dir := t.TempDir()
	populateStore(t, dir, cfg.Series, cfg.Linkage)
	snaps, err := filepath.Glob(filepath.Join(dir, "snap_*.jsonl"))
	if err != nil || len(snaps) == 0 {
		t.Fatalf("snapshots = %v, %v", snaps, err)
	}
	for _, p := range snaps {
		if err := os.WriteFile(p, []byte("garbage, no newline"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Store = st
	stats := obs.NewStats(nil)
	cfg.Stats = stats
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Abort()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if got := stats.Total(obs.StoreCorrupt); got != int64(len(cfg.Series.Pairs())) {
		t.Errorf("store corrupt counter = %d at boot, want %d", got, len(cfg.Series.Pairs()))
	}
	if status, body := get(t, ts, "/v1/links/1871/1881/records"); status != http.StatusOK {
		t.Fatalf("status %d after corrupt snapshot: %s", status, body)
	}
	// The served pair was recomputed and written back as a valid snapshot.
	res, err := st.LoadResult(cfg.Linkage.Fingerprint(), cfg.Series.Pairs()[0][0], cfg.Series.Pairs()[0][1])
	if err != nil || res == nil {
		t.Errorf("snapshot not repaired after recompute: (%v, %v)", res, err)
	}
}

// ingestFixture is the 1901 census the store tests ingest: its CSV body and
// the dataset the server will parse from it (the snapshot address hashes
// the parsed dataset, so it is read back from the same bytes).
func ingestFixture(t *testing.T, series *census.Series) (body []byte, parsed *census.Dataset) {
	t.Helper()
	body = csvBody(t, agedDataset(t, series.Dataset(1891), "1891", "1901", 1901))
	parsed, err := census.ReadCSV(bytes.NewReader(body), 1901)
	if err != nil {
		t.Fatal(err)
	}
	return body, parsed
}

// TestIngestStoreHitSkipsPipeline: an ingested year whose pair already has
// a trusted snapshot is served from the store — the pipeline never runs for
// it, and the load counts as a store hit.
func TestIngestStoreHitSkipsPipeline(t *testing.T) {
	cfg := testConfig(t)
	body, fourth := ingestFixture(t, cfg.Series)
	third := cfg.Series.Dataset(1891)
	want, err := linkage.LinkContext(context.Background(), third, fourth, cfg.Linkage)
	if err != nil {
		t.Fatal(err)
	}
	fs := newFlakyStore()
	if err := fs.SaveResult(cfg.Linkage.Fingerprint(), third, fourth, want); err != nil {
		t.Fatal(err)
	}
	cfg.Store = fs
	stats := obs.NewStats(nil)
	cfg.Stats = stats
	cfg.linkFn = func(ctx context.Context, old, new *census.Dataset, lc linkage.Config) (*linkage.Result, error) {
		if new.Year == 1901 {
			t.Errorf("pipeline invoked for %d-%d despite its snapshot", old.Year, new.Year)
		}
		return linkage.LinkContext(ctx, old, new, lc)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Abort()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if status, body := postCSV(t, ts, 1901, body); status != http.StatusCreated {
		t.Fatalf("POST /v1/census = %d: %s", status, body)
	}
	if got := stats.Total(obs.StoreHits); got != 1 {
		t.Errorf("store hits = %d, want 1 (the ingested pair)", got)
	}
	var rl struct {
		Page api.Page `json:"page"`
	}
	getJSON(t, ts, "/v1/links/1891/1901/records", &rl)
	if rl.Page.Total != len(want.RecordLinks) {
		t.Errorf("ingested pair serves %d record links, snapshot holds %d", rl.Page.Total, len(want.RecordLinks))
	}
}

// TestIngestCorruptSnapshotRecomputed: a damaged snapshot of the ingested
// pair is counted corrupt, the pair is recomputed, and the fresh result
// overwrites the snapshot.
func TestIngestCorruptSnapshotRecomputed(t *testing.T) {
	cfg := testConfig(t)
	body, fourth := ingestFixture(t, cfg.Series)
	third := cfg.Series.Dataset(1891)
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	res, err := linkage.LinkContext(context.Background(), third, fourth, cfg.Linkage)
	if err != nil {
		t.Fatal(err)
	}
	cfgHash := cfg.Linkage.Fingerprint()
	if err := st.SaveResult(cfgHash, third, fourth, res); err != nil {
		t.Fatal(err)
	}
	snaps, err := filepath.Glob(filepath.Join(dir, "snap_*.jsonl"))
	if err != nil || len(snaps) != 1 {
		t.Fatalf("snapshots = %v, %v", snaps, err)
	}
	if err := os.WriteFile(snaps[0], []byte("garbage, no newline"), 0o644); err != nil {
		t.Fatal(err)
	}

	cfg.Store = st
	stats := obs.NewStats(nil)
	cfg.Stats = stats
	var runs atomic.Int64
	cfg.linkFn = func(ctx context.Context, old, new *census.Dataset, lc linkage.Config) (*linkage.Result, error) {
		if new.Year == 1901 {
			runs.Add(1)
		}
		return linkage.LinkContext(ctx, old, new, lc)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Abort()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if status, body := postCSV(t, ts, 1901, body); status != http.StatusCreated {
		t.Fatalf("POST /v1/census = %d: %s", status, body)
	}
	if got := stats.Total(obs.StoreCorrupt); got != 1 {
		t.Errorf("store corrupt = %d, want 1", got)
	}
	if got := runs.Load(); got != 1 {
		t.Errorf("pipeline runs for the ingested pair = %d, want 1", got)
	}
	got, err := st.LoadResult(cfgHash, third, fourth)
	if err != nil || got == nil {
		t.Fatalf("snapshot not overwritten after recompute: (%v, %v)", got, err)
	}
	if len(got.RecordLinks) != len(res.RecordLinks) {
		t.Errorf("rewritten snapshot holds %d record links, want %d", len(got.RecordLinks), len(res.RecordLinks))
	}
}
