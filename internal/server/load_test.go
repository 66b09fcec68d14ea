package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"censuslink/internal/census"
	"censuslink/internal/linkage"

	"censuslink/internal/server/api"
)

// TestConditionalGET: immutable linkage resources carry strong ETags
// derived from their content address, and a matching If-None-Match
// revalidates to an empty 304 — on a cache hit, without recomputing
// anything.
func TestConditionalGET(t *testing.T) {
	srv, err := New(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Abort()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	first := func(path string) (etag string) {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d: %s", path, resp.StatusCode, body)
		}
		etag = resp.Header.Get("ETag")
		if etag == "" || !strings.HasPrefix(etag, `"`) {
			t.Fatalf("GET %s: ETag = %q, want a strong quoted tag", path, etag)
		}
		return etag
	}
	revalidate := func(path, inm string) (int, string, string) {
		t.Helper()
		req, _ := http.NewRequest("GET", ts.URL+path, nil)
		req.Header.Set("If-None-Match", inm)
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(body), resp.Header.Get("ETag")
	}

	// Pair-scoped and series-scoped resources all revalidate, after the
	// first request warmed the cache.
	for _, path := range []string{
		"/v1/links/1871/1881/records",
		"/v1/links/1871/1881/groups",
		"/v1/evolution/1871/1881/patterns",
		"/v1/timelines?min_span=2",
		"/v1/years",
	} {
		etag := first(path)
		status, body, etag2 := revalidate(path, etag)
		if status != http.StatusNotModified || body != "" {
			t.Errorf("GET %s revalidated: status %d body %q, want empty 304", path, status, body)
		}
		if etag2 != etag {
			t.Errorf("GET %s: 304 ETag %q != original %q", path, etag2, etag)
		}
	}

	// The validator covers the page window and filters: a different window
	// is a different representation with a different tag.
	base := first("/v1/links/1871/1881/records")
	windowed := first("/v1/links/1871/1881/records?limit=2")
	if base == windowed {
		t.Error("different page windows share an ETag")
	}
	// ...but query-parameter order does not matter.
	a := first("/v1/timelines?limit=2&min_span=2")
	b := first("/v1/timelines?min_span=2&limit=2")
	if a != b {
		t.Errorf("param order changed the ETag: %q vs %q", a, b)
	}

	// Mismatched tags still get the full body; list forms and weak-prefixed
	// copies of the right tag match.
	if status, _, _ := revalidate("/v1/years", `"deadbeef"`); status != http.StatusOK {
		t.Errorf("stale tag: status %d, want 200", status)
	}
	yearsTag := first("/v1/years")
	if status, _, _ := revalidate("/v1/years", `"nope", W/`+yearsTag); status != http.StatusNotModified {
		t.Errorf("list + weak form did not match")
	}
	if status, _, _ := revalidate("/v1/years", "*"); status != http.StatusNotModified {
		t.Errorf("wildcard did not match")
	}
}

// TestConditionalGETSkipsComputation: a revalidation of an immutable pair
// resource answers 304 from the content address alone — the pipeline is
// never invoked.
func TestConditionalGETSkipsComputation(t *testing.T) {
	ran := make(chan struct{}, 1)
	cfg := testConfig(t)
	cfg.linkFn = func(ctx context.Context, old, new *census.Dataset, lc linkage.Config) (*linkage.Result, error) {
		ran <- struct{}{}
		return linkage.LinkContext(ctx, old, new, lc)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Abort()

	// Prime the tag with one real request.
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/links/1871/1881/records", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("prime: %d %s", rec.Code, rec.Body)
	}
	<-ran
	etag := rec.Header().Get("ETag")

	req := httptest.NewRequest("GET", "/v1/links/1871/1881/records", nil)
	req.Header.Set("If-None-Match", etag)
	rec2 := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec2, req)
	if rec2.Code != http.StatusNotModified {
		t.Fatalf("revalidate: %d", rec2.Code)
	}
	select {
	case <-ran:
		t.Error("revalidation invoked the pipeline")
	default:
	}
}

// TestLoadShedding: with the in-flight cap saturated, excess API requests
// are shed with the typed 503 `overloaded` envelope and a Retry-After hint,
// while /healthz stays exempt and keeps answering.
func TestLoadShedding(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	cfg := testConfig(t)
	cfg.MaxInFlight = 1
	cfg.linkFn = func(ctx context.Context, old, new *census.Dataset, lc linkage.Config) (*linkage.Result, error) {
		once.Do(func() { close(started) })
		select {
		case <-release:
		case <-ctx.Done():
			return nil, ctx.Err()
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

	firstDone := make(chan int, 1)
	go func() {
		resp, err := ts.Client().Get(ts.URL + "/v1/links/1871/1881/records")
		if err != nil {
			firstDone <- 0
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		firstDone <- resp.StatusCode
	}()
	<-started

	// The cap is full: the next API request is shed.
	resp, err := ts.Client().Get(ts.URL + "/v1/years")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("shed status = %d: %s, want 503", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed response missing Retry-After")
	}
	var envelope api.ErrorEnvelope
	if err := json.Unmarshal(body, &envelope); err != nil || envelope.Error.Code != api.CodeOverloaded {
		t.Errorf("shed envelope = %s, want code %q", body, api.CodeOverloaded)
	}

	// Infrastructure endpoints are exempt.
	if status, _ := get(t, ts, "/healthz"); status != http.StatusOK {
		t.Errorf("healthz shed under load: %d", status)
	}

	close(release)
	if status := <-firstDone; status != http.StatusOK {
		t.Fatalf("first request finished %d, want 200", status)
	}

	// The shed decision is on /metrics.
	_, metrics := get(t, ts, "/metrics")
	if !strings.Contains(string(metrics), `censuslink_http_shed_total{endpoint="years",reason="overload"} 1`) {
		t.Errorf("/metrics missing shed counter:\n%s", metrics)
	}
}

// TestRateLimiting: a single client burning through its token bucket gets
// 429 `rate_limited` with Retry-After; the bucket refills over time.
func TestRateLimiting(t *testing.T) {
	cfg := testConfig(t)
	cfg.RateLimit = 0.5 // one token every 2s: the test never refills
	cfg.RateBurst = 2
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Abort()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for i := 0; i < 2; i++ {
		if status, body := get(t, ts, "/v1/years"); status != http.StatusOK {
			t.Fatalf("request %d within burst: %d: %s", i, status, body)
		}
	}
	resp, err := ts.Client().Get(ts.URL + "/v1/years")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-budget status = %d: %s, want 429", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Errorf("Retry-After = %q, want >= 1 second", ra)
	}
	var envelope api.ErrorEnvelope
	if err := json.Unmarshal(body, &envelope); err != nil || envelope.Error.Code != api.CodeRateLimited {
		t.Errorf("rate-limit envelope = %s, want code %q", body, api.CodeRateLimited)
	}
	// /metrics and /healthz are never rate limited.
	if status, _ := get(t, ts, "/healthz"); status != http.StatusOK {
		t.Errorf("healthz rate limited: %d", status)
	}
}

// TestTokenBuckets drives the limiter directly with a fake clock: burst
// spending, refill, Retry-After arithmetic and idle-bucket eviction.
func TestTokenBuckets(t *testing.T) {
	if newTokenBuckets(0, 5) != nil {
		t.Fatal("rate 0 should disable the limiter")
	}
	var nilLimiter *tokenBuckets
	if ok, _ := nilLimiter.allow("x"); !ok {
		t.Fatal("nil limiter must allow everything")
	}

	now := time.Unix(1000, 0)
	tb := newTokenBuckets(1, 2) // 1 token/s, burst 2
	tb.now = func() time.Time { return now }

	for i := 0; i < 2; i++ {
		if ok, _ := tb.allow("a"); !ok {
			t.Fatalf("burst request %d rejected", i)
		}
	}
	ok, retry := tb.allow("a")
	if ok {
		t.Fatal("empty bucket allowed a request")
	}
	if retry <= 0 || retry > time.Second {
		t.Errorf("retry = %v, want (0, 1s]", retry)
	}
	// Another client is unaffected.
	if ok, _ := tb.allow("b"); !ok {
		t.Error("second client rejected by first client's bucket")
	}
	// Refill: one second restores one token.
	now = now.Add(time.Second)
	if ok, _ := tb.allow("a"); !ok {
		t.Error("bucket did not refill")
	}

	// Eviction: fully idle buckets are dropped when the table is at
	// capacity.
	tb.mu.Lock()
	tb.clients = map[string]*bucket{}
	for i := 0; i < maxTrackedClients; i++ {
		tb.clients[clientName(i)] = &bucket{tokens: 2, last: now.Add(-time.Hour)}
	}
	tb.mu.Unlock()
	if ok, _ := tb.allow("fresh"); !ok {
		t.Fatal("fresh client rejected at capacity")
	}
	tb.mu.Lock()
	n := len(tb.clients)
	tb.mu.Unlock()
	if n > 1 {
		t.Errorf("idle buckets not evicted: %d remain", n)
	}
}

func clientName(i int) string {
	return "client-" + strconv.Itoa(i)
}

// TestClientGoneCounted: a requester that disconnects mid-computation is
// recorded as client_gone (status 499, no body) instead of polluting the
// unavailable counters.
func TestClientGoneCounted(t *testing.T) {
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
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("request did not finish after client cancellation")
	}
	if rec.Code != api.StatusClientClosedRequest {
		t.Errorf("status = %d, want %d", rec.Code, api.StatusClientClosedRequest)
	}
	if rec.Body.Len() != 0 {
		t.Errorf("a body was written for a vanished client: %q", rec.Body)
	}

	mrec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(mrec, httptest.NewRequest("GET", "/metrics", nil))
	for _, want := range []string{
		`censuslink_http_client_gone_total{endpoint="record_links"} 1`,
		`censuslink_http_responses_total{endpoint="record_links",code="499"} 1`,
	} {
		if !strings.Contains(mrec.Body.String(), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// No unavailable (503) was recorded for the disconnect.
	if strings.Contains(mrec.Body.String(), `censuslink_http_responses_total{endpoint="record_links",code="503"}`) {
		t.Error("client disconnect counted as 503 unavailable")
	}
}

// TestWriteJSONMarshalFailure: an unencodable value never escapes as a
// truncated body under a success status — the whole response becomes a
// clean 500 envelope.
func TestWriteJSONMarshalFailure(t *testing.T) {
	rec := httptest.NewRecorder()
	api.WriteJSON(rec, http.StatusOK, map[string]any{"bad": make(chan int)})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	var envelope api.ErrorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &envelope); err != nil || envelope.Error.Code != api.CodeInternal {
		t.Fatalf("body = %q, want internal error envelope", rec.Body)
	}
}

// TestWriteListJSONEncodeFailures: a head-field failure is a clean 500; an
// item failure after the header is out aborts the connection (the handler
// panics with http.ErrAbortHandler) and is counted.
func TestWriteListJSONEncodeFailures(t *testing.T) {
	srv, err := New(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Abort()

	rec := httptest.NewRecorder()
	srv.writeList(rec, http.StatusOK,
		[]api.Field{{Name: "bad", Value: make(chan int)}}, "items", 0, func(int) any { return nil })
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("head failure status = %d, want 500", rec.Code)
	}

	rec2 := httptest.NewRecorder()
	func() {
		defer func() {
			if r := recover(); r != http.ErrAbortHandler {
				t.Errorf("recovered %v, want http.ErrAbortHandler", r)
			}
		}()
		srv.writeList(rec2, http.StatusOK, nil, "items", 1,
			func(int) any { return make(chan int) })
	}()
	if got := srv.requests.encodeErrors.Load(); got != 1 {
		t.Errorf("encode errors = %d, want 1", got)
	}

	// The happy path emits compact (un-indented), valid JSON.
	rec3 := httptest.NewRecorder()
	srv.writeList(rec3, http.StatusOK,
		[]api.Field{{Name: "n", Value: 2}}, "items", 2, func(i int) any { return i })
	if got := strings.TrimSpace(rec3.Body.String()); got != `{"n":2,"items":[0,1]}` {
		t.Errorf("stream = %q", got)
	}
}
