package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"censuslink/internal/census"
	"censuslink/internal/linkage"
	"censuslink/internal/paperexample"

	"censuslink/internal/server/api"
)

// testSeries builds a three-census series by aging the running example one
// more decade, so the evolution graph has two pairs to chain.
func testSeries(t *testing.T) *census.Series {
	t.Helper()
	old, new := paperexample.Old(), paperexample.New()
	third := census.NewDataset(1891)
	for _, h := range new.Households() {
		nh := &census.Household{ID: strings.Replace(h.ID, "1881", "1891", 1)}
		if err := third.AddHousehold(nh); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range new.Records() {
		nr := *r
		nr.ID = strings.Replace(r.ID, "1881", "1891", 1)
		nr.HouseholdID = strings.Replace(r.HouseholdID, "1881", "1891", 1)
		nr.Age += 10
		if err := third.AddRecord(&nr); err != nil {
			t.Fatal(err)
		}
	}
	return census.NewSeries(old, new, third)
}

func testConfig(t *testing.T) Config {
	t.Helper()
	cfg := linkage.DefaultConfig()
	cfg.Workers = 1
	return Config{Series: testSeries(t), Linkage: cfg}
}

func get(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func getJSON(t *testing.T, ts *httptest.Server, path string, v any) {
	t.Helper()
	status, body := get(t, ts, path)
	if status != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", path, status, body)
	}
	if err := json.Unmarshal(body, v); err != nil {
		t.Fatalf("GET %s: bad JSON: %v\n%s", path, err, body)
	}
}

// TestServerEndpoints drives every query endpoint concurrently against a
// live httptest server: record links (with provenance), group links,
// evolution patterns, household timelines, record lifecycles and person
// timelines must all serve in parallel from the shared cache.
func TestServerEndpoints(t *testing.T) {
	srv, err := New(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Abort()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	paths := []string{
		"/v1/years",
		"/v1/links/1871/1881/records",
		"/v1/links/1881/1891/records",
		"/v1/links/1871/1881/groups",
		"/v1/evolution/1871/1881/patterns",
		"/v1/households/1871/1871_a/timeline",
		"/v1/records/1871/1871_1/lifecycle",
		"/v1/timelines?min_span=2",
		"/healthz",
	}
	var wg sync.WaitGroup
	errs := make(chan string, len(paths)*4)
	for round := 0; round < 4; round++ {
		for _, p := range paths {
			wg.Add(1)
			go func(p string) {
				defer wg.Done()
				status, body := get(t, ts, p)
				if status != http.StatusOK {
					errs <- fmt.Sprintf("GET %s: status %d: %s", p, status, body)
				}
			}(p)
		}
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}

	// Record links carry provenance; the running example has remainder links.
	var rl struct {
		OldYear int              `json:"old_year"`
		Page    api.Page         `json:"page"`
		Links   []recordLinkJSON `json:"record_links"`
	}
	getJSON(t, ts, "/v1/links/1871/1881/records", &rl)
	if rl.OldYear != 1871 || rl.Page.Total == 0 || rl.Page.Returned != len(rl.Links) {
		t.Fatalf("record links = %+v", rl)
	}
	kinds := map[string]int{}
	for _, l := range rl.Links {
		if l.Source == nil {
			t.Errorf("link %s->%s has no provenance", l.Old, l.New)
			continue
		}
		kinds[l.Source.Kind]++
		if l.Source.Kind == "subgraph" && l.Source.GroupOld == "" {
			t.Errorf("subgraph link %s->%s missing supporting group", l.Old, l.New)
		}
	}
	if kinds["subgraph"] == 0 || kinds["remainder"] == 0 {
		t.Errorf("source kinds = %v, want both subgraph and remainder", kinds)
	}

	// Filtering by record; the page total reflects the filtered list.
	var one struct {
		Page api.Page `json:"page"`
	}
	getJSON(t, ts, "/v1/links/1871/1881/records?record=1871_1", &one)
	if one.Page.Total != 1 {
		t.Errorf("filtered total = %d, want 1", one.Page.Total)
	}

	// Pagination: following page.next_cursor from a plain ?limit=k first
	// page tiles the full list, whatever the filters.
	for _, list := range []struct{ path, field string }{
		{"/v1/links/1871/1881/records", "record_links"},
		{"/v1/links/1871/1881/records?source=subgraph", "record_links"},
		{"/v1/links/1871/1881/records?record=1871_1", "record_links"},
		{"/v1/links/1871/1881/groups", "group_links"},
		{"/v1/evolution/1871/1881/patterns", "events"},
		{"/v1/timelines?min_span=1", "timelines"},
	} {
		var full map[string]json.RawMessage
		getJSON(t, ts, list.path, &full)
		var want []json.RawMessage
		if err := json.Unmarshal(full[list.field], &want); err != nil {
			t.Fatal(err)
		}
		sep := "?"
		if strings.Contains(list.path, "?") {
			sep = "&"
		}
		var got []json.RawMessage
		returned, pages := 0, 0
		for next := list.path + sep + "limit=2"; next != ""; pages++ {
			var pg map[string]json.RawMessage
			getJSON(t, ts, next, &pg)
			var page api.Page
			var items []json.RawMessage
			if err := json.Unmarshal(pg["page"], &page); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(pg[list.field], &items); err != nil {
				t.Fatal(err)
			}
			if page.Limit != 2 || page.Offset != len(got) || page.Returned != len(items) || page.Total != len(want) {
				t.Errorf("%s: page %d = %+v with %d items after %d, want total %d", list.path, pages, page, len(items), len(got), len(want))
			}
			got = append(got, items...)
			returned += page.Returned
			next = ""
			if page.NextCursor != "" {
				next = list.path + sep + "limit=2&cursor=" + page.NextCursor
			}
			if pages > len(want) {
				t.Fatalf("%s: cursor chain does not terminate", list.path)
			}
		}
		if returned != len(want) || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: %d pages returned %d of %d items, want the full list in order", list.path, pages, returned, len(want))
		}
		if len(want) > 2 && pages < 2 {
			t.Errorf("%s: %d items fit one page of 2", list.path, len(want))
		}
	}
	if status, body := get(t, ts, "/v1/links/1871/1881/records?limit=0"); status != http.StatusBadRequest {
		t.Errorf("limit=0: status %d: %s, want 400", status, body)
	}
	// Offset pagination is gone: refused, not ignored.
	status, body := get(t, ts, "/v1/links/1871/1881/records?offset=1")
	var offsetErr api.ErrorEnvelope
	if err := json.Unmarshal(body, &offsetErr); err != nil || status != http.StatusBadRequest ||
		offsetErr.Error.Code != api.CodeBadRequest || !strings.Contains(offsetErr.Error.Message, "next_cursor") {
		t.Errorf("offset=1: status %d: %s, want 400 naming page.next_cursor", status, body)
	}
	// The unprefixed /api aliases are gone.
	if status, _ := get(t, ts, "/api/years"); status != http.StatusNotFound {
		t.Errorf("/api/years: status %d, want 404", status)
	}

	// Patterns carry counts plus the flattened, paginated event list.
	var pat struct {
		Counts       map[string]int     `json:"counts"`
		Page         api.Page           `json:"page"`
		Events       []patternEventJSON `json:"events"`
		Unclassified [][2]string        `json:"unclassified_links"`
	}
	getJSON(t, ts, "/v1/evolution/1871/1881/patterns", &pat)
	if pat.Counts["preserve_G"] == 0 {
		t.Errorf("pattern counts = %v, want preserved groups", pat.Counts)
	}
	if len(pat.Unclassified) != 0 {
		t.Errorf("unclassified = %v, want none from the pipeline", pat.Unclassified)
	}
	if pat.Page.Total != len(pat.Events) {
		t.Errorf("pattern events page = %+v with %d events", pat.Page, len(pat.Events))
	}
	byPattern := map[string]int{}
	for _, e := range pat.Events {
		byPattern[e.Pattern]++
	}
	for name, n := range pat.Counts {
		if byPattern[name] != n {
			t.Errorf("events carry %d %q, counts say %d", byPattern[name], name, n)
		}
	}

	// Household timeline has events leaving 1871_a.
	var tl struct {
		Events []hhEventJSON `json:"events"`
	}
	getJSON(t, ts, "/v1/households/1871/1871_a/timeline", &tl)
	if len(tl.Events) == 0 {
		t.Error("household 1871_a has no timeline events")
	}
	for _, e := range tl.Events {
		if e.Pattern == "" || e.FromYear >= e.ToYear {
			t.Errorf("bad event %+v", e)
		}
	}

	// Record lifecycle traces John Ashworth through all three censuses.
	var lc struct {
		Name      string         `json:"name"`
		Timelines []timelineJSON `json:"timelines"`
	}
	getJSON(t, ts, "/v1/records/1871/1871_1/lifecycle", &lc)
	if lc.Name != "john ashworth" {
		t.Errorf("lifecycle name = %q", lc.Name)
	}
	if len(lc.Timelines) == 0 || lc.Timelines[0].Span < 3 {
		t.Errorf("lifecycle timelines = %+v, want a span-3 chain", lc.Timelines)
	}

	// Unknown years and entities are 404s carrying the typed error envelope.
	for _, p := range []string{
		"/v1/links/1871/1901/records",
		"/v1/households/1871/nope/timeline",
		"/v1/records/1900/1871_1/lifecycle",
	} {
		status, body := get(t, ts, p)
		if status != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", p, status)
		}
		var envelope api.ErrorEnvelope
		if err := json.Unmarshal(body, &envelope); err != nil || envelope.Error.Code != api.CodeNotFound || envelope.Error.Message == "" {
			t.Errorf("GET %s: error envelope = %s", p, body)
		}
	}

	// /metrics exposes pipeline counters and server request counters.
	status, body = get(t, ts, "/metrics")
	if status != http.StatusOK {
		t.Fatalf("/metrics status %d", status)
	}
	for _, want := range []string{
		`censuslink_pipeline_total{name="record_links"}`,
		`censuslink_stage_seconds_total{stage="prematch"}`,
		`censuslink_http_requests_total{endpoint="record_links"}`,
		"censuslink_pairs_cached 2",
		"censuslink_http_in_flight",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestServerSingleFlight: N concurrent requests for the same (and the
// other) pair must trigger exactly one pipeline run per pair, and later
// requests must hit the cache without any further runs.
func TestServerSingleFlight(t *testing.T) {
	var runs atomic.Int64
	cfg := testConfig(t)
	cfg.linkFn = func(ctx context.Context, old, new *census.Dataset, lc linkage.Config) (*linkage.Result, error) {
		runs.Add(1)
		time.Sleep(20 * time.Millisecond) // widen the pile-up window
		return linkage.LinkContext(ctx, old, new, lc)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Abort()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		path := "/v1/links/1871/1881/records"
		if i%2 == 1 {
			path = "/v1/links/1881/1891/groups"
		}
		wg.Add(1)
		go func(p string) {
			defer wg.Done()
			if status, body := get(t, ts, p); status != http.StatusOK {
				t.Errorf("GET %s: %d: %s", p, status, body)
			}
		}(path)
	}
	wg.Wait()
	if got := runs.Load(); got != 2 {
		t.Fatalf("pipeline runs = %d, want 2 (one per pair)", got)
	}
	// Cache hits: no further runs.
	get(t, ts, "/v1/links/1871/1881/records")
	get(t, ts, "/v1/timelines")
	if got := runs.Load(); got != 2 {
		t.Errorf("pipeline runs after cache hits = %d, want 2", got)
	}
}

// TestServerRequestDeadlineAbandonsComputation: a request whose context
// dies while it is the only waiter must cancel the underlying pipeline run
// (the request-scoped deadline flows into the pipeline's checkpoints), and
// a later request must succeed on a fresh run.
func TestServerRequestDeadlineAbandonsComputation(t *testing.T) {
	started := make(chan struct{})
	cancelled := make(chan error, 1)
	var gate sync.Once
	cfg := testConfig(t)
	cfg.linkFn = func(ctx context.Context, old, new *census.Dataset, lc linkage.Config) (*linkage.Result, error) {
		var first bool
		gate.Do(func() { first = true })
		if first {
			close(started)
			<-ctx.Done() // stall until abandoned
			cancelled <- ctx.Err()
			return nil, ctx.Err()
		}
		return linkage.LinkContext(ctx, old, new, lc)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Abort()

	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest("GET", "/v1/links/1871/1881/records", nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		srv.Handler().ServeHTTP(rec, req)
		close(done)
	}()
	<-started
	cancel() // the only waiter gives up
	select {
	case err := <-cancelled:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("pipeline saw %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("abandonment did not cancel the pipeline run")
	}
	<-done

	// The failed flight is not cached: a fresh request recomputes and wins.
	req2 := httptest.NewRequest("GET", "/v1/links/1871/1881/records", nil)
	rec2 := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec2, req2)
	if rec2.Code != http.StatusOK {
		t.Fatalf("retry after abandonment: status %d: %s", rec2.Code, rec2.Body)
	}
}

// TestServerComputeTimeout: a pair computation exceeding ComputeTimeout
// fails as a gateway timeout, not a hang.
func TestServerComputeTimeout(t *testing.T) {
	cfg := testConfig(t)
	cfg.ComputeTimeout = 10 * time.Millisecond
	cfg.linkFn = func(ctx context.Context, old, new *census.Dataset, lc linkage.Config) (*linkage.Result, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Abort()
	req := httptest.NewRequest("GET", "/v1/links/1871/1881/records", nil)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusGatewayTimeout {
		t.Errorf("status = %d, want 504", rec.Code)
	}
}

// TestServerAbort: shutdown cancels in-flight computations promptly, the
// waiting request fails with 503, and /healthz flips to shutting_down.
func TestServerAbort(t *testing.T) {
	started := make(chan struct{})
	var once sync.Once
	cfg := testConfig(t)
	cfg.linkFn = func(ctx context.Context, old, new *census.Dataset, lc linkage.Config) (*linkage.Result, error) {
		once.Do(func() { close(started) })
		<-ctx.Done()
		return nil, ctx.Err()
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/links/1871/1881/records", nil))
		close(done)
	}()
	<-started
	srv.Abort()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("request did not drain after Abort")
	}
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("aborted request status = %d, want 503", rec.Code)
	}
	hrec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(hrec, httptest.NewRequest("GET", "/healthz", nil))
	if hrec.Code != http.StatusServiceUnavailable || !strings.Contains(hrec.Body.String(), "shutting_down") {
		t.Errorf("healthz after abort: %d %s", hrec.Code, hrec.Body)
	}
}

// TestServerPrecompute: eager startup fills every pair slot and the
// evolution bundle, so the first query is a pure cache hit.
func TestServerPrecompute(t *testing.T) {
	var runs atomic.Int64
	cfg := testConfig(t)
	cfg.linkFn = func(ctx context.Context, old, new *census.Dataset, lc linkage.Config) (*linkage.Result, error) {
		runs.Add(1)
		return linkage.LinkContext(ctx, old, new, lc)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Abort()
	if err := srv.Precompute(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := runs.Load(); got != 2 {
		t.Fatalf("precompute runs = %d, want 2", got)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	var h struct {
		PairsCached int `json:"pairs_cached"`
	}
	getJSON(t, ts, "/healthz", &h)
	if h.PairsCached != 2 {
		t.Errorf("pairs_cached = %d, want 2", h.PairsCached)
	}
	get(t, ts, "/v1/timelines")
	if got := runs.Load(); got != 2 {
		t.Errorf("runs after warm queries = %d, want 2", got)
	}
}

// TestServerNew rejects unusable configurations.
func TestServerNew(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("nil series accepted")
	}
	one := census.NewSeries(paperexample.Old())
	if _, err := New(Config{Series: one, Linkage: linkage.DefaultConfig()}); err == nil {
		t.Error("single-census series accepted")
	}
	bad := linkage.DefaultConfig()
	bad.DeltaHigh, bad.DeltaLow = 0.4, 0.6
	if _, err := New(Config{Series: testSeries(t), Linkage: bad}); err == nil {
		t.Error("invalid linkage config accepted")
	}
}
