package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// pairLinkEndpoints are the immutable pair-scoped resources whose
// conditional revalidation ratio the summary reports: once their ETag is
// known, a well-behaved server answers nothing but 304s for them.
var pairLinkEndpoints = map[string]bool{
	"records": true, "groups": true, "patterns": true,
}

// defaultMix approximates a read-heavy analytical client: mostly link and
// evolution queries, a sprinkle of per-entity drill-downs and index hits.
// watch_poll (the change feed's long-poll read) is known but off by
// default; give it a weight to fold feed readers into the load.
var defaultMix = map[string]int{
	"records":            4,
	"groups":             2,
	"patterns":           2,
	"timelines":          1,
	"household_timeline": 2,
	"record_lifecycle":   2,
	"years":              1,
	"watch_poll":         0,
}

// mixToOperation maps loadgen's endpoint names to the operationIds of the
// server's OpenAPI document, which discovery reads the path templates from.
var mixToOperation = map[string]string{
	"records":            "record_links",
	"groups":             "group_links",
	"patterns":           "patterns",
	"timelines":          "timelines",
	"household_timeline": "household_timeline",
	"record_lifecycle":   "record_lifecycle",
	"years":              "years",
	"watch_poll":         "evolution_watch",
}

// Options configures one load run against a live linkserver.
type Options struct {
	// BaseURL is the server root, e.g. http://localhost:8199.
	BaseURL string
	// Concurrency is the number of worker goroutines issuing requests;
	// <= 0 means 8.
	Concurrency int
	// Duration is the measured window; <= 0 means 10s.
	Duration time.Duration
	// Timeout caps one request; <= 0 means 30s.
	Timeout time.Duration
	// Mix weights the endpoints (keys of defaultMix); nil means defaultMix.
	// Endpoints with weight <= 0 are not exercised.
	Mix map[string]int
	// Conditional sends If-None-Match revalidations: the discovery pass
	// primes an ETag cache with one full response per target URL, and the
	// measured window replays them conditionally.
	Conditional bool
	// SampleIDs bounds how many record/household IDs discovery samples per
	// pair for the drill-down endpoints; <= 0 means 8.
	SampleIDs int
	// Retries is how many times one shed request (503 with the server's
	// Retry-After hint) is retried before the response is final; each retry
	// sleeps the hinted delay, jittered and capped at maxRetryDelay. <= 0
	// disables retrying. Retries are counted in the summary, never hidden:
	// the 503s still appear in the status counts and the Shed total.
	Retries int
	// Seed makes the per-worker request schedules reproducible.
	Seed int64
	// Client overrides the HTTP client (tests inject an httptest client);
	// nil builds one sized for Concurrency.
	Client *http.Client
}

// EndpointSummary aggregates one endpoint's results.
type EndpointSummary struct {
	Requests        int64            `json:"requests"`
	Status          map[string]int64 `json:"status"`
	TransportErrors int64            `json:"transport_errors"`
	Retries         int64            `json:"retries"`
	NotModified     int64            `json:"not_modified"`
	P50Ms           float64          `json:"p50_ms"`
	P95Ms           float64          `json:"p95_ms"`
	P99Ms           float64          `json:"p99_ms"`
}

// Summary is the machine-readable result of one load run; it is what
// BENCH_server.json holds.
type Summary struct {
	BaseURL         string  `json:"base_url"`
	Concurrency     int     `json:"concurrency"`
	DurationSeconds float64 `json:"duration_seconds"`
	Conditional     bool    `json:"conditional"`

	Requests int64   `json:"requests"`
	QPS      float64 `json:"qps"`
	P50Ms    float64 `json:"p50_ms"`
	P95Ms    float64 `json:"p95_ms"`
	P99Ms    float64 `json:"p99_ms"`
	MaxMs    float64 `json:"max_ms"`

	// TransportErrors are requests that never produced a status line;
	// ServerErrors are 5xx responses; Shed counts 429 + 503 rejections;
	// Retries counts Retry-After-honoring re-issues of shed requests (each
	// retry is also its own entry in Requests and the status counts).
	TransportErrors int64 `json:"transport_errors"`
	ServerErrors    int64 `json:"server_errors"`
	Shed            int64 `json:"shed"`
	Retries         int64 `json:"retries"`

	// NotModified counts 304 responses across all endpoints;
	// PairLinkNotModifiedRatio is 304s over all requests to the immutable
	// pair-link endpoints (records, groups, patterns) — the conditional-GET
	// effectiveness measure.
	NotModified              int64   `json:"not_modified"`
	PairLinkNotModifiedRatio float64 `json:"pair_link_not_modified_ratio"`

	Endpoints map[string]EndpointSummary `json:"endpoints"`
}

// target is one concrete URL a worker may hit, tagged with its endpoint
// name for the per-endpoint stats.
type target struct {
	endpoint string
	url      string
}

// endpointStats is one worker's tally for one endpoint; workers own their
// stats exclusively and the run merges them afterwards, so the request loop
// takes no locks.
type endpointStats struct {
	requests        int64
	status          map[int]int64
	transportErrors int64
	retries         int64
	latenciesMs     []float64
}

// Harness drives a fixed target set against a server. Build with
// NewHarness (which discovers the series shape), then Run.
type Harness struct {
	opts    Options
	client  *http.Client
	targets map[string][]target // endpoint -> candidate URLs
	names   []string            // weighted endpoints, stable order
	weights []int               // aligned with names
	total   int                 // sum of weights
	etags   sync.Map            // url -> ETag from the last full response
}

// NewHarness validates the options and discovers the target URLs from the
// live server: the route templates from /v1/openapi.json, the year pairs
// from /v1/years, and sampled record and household IDs from the first
// pair's links for the drill-down endpoints.
func NewHarness(ctx context.Context, opts Options) (*Harness, error) {
	if opts.BaseURL == "" {
		return nil, errors.New("loadgen: BaseURL required")
	}
	opts.BaseURL = strings.TrimRight(opts.BaseURL, "/")
	if opts.Concurrency <= 0 {
		opts.Concurrency = 8
	}
	if opts.Duration <= 0 {
		opts.Duration = 10 * time.Second
	}
	if opts.Timeout <= 0 {
		opts.Timeout = 30 * time.Second
	}
	if opts.SampleIDs <= 0 {
		opts.SampleIDs = 8
	}
	if opts.Mix == nil {
		opts.Mix = defaultMix
	}
	client := opts.Client
	if client == nil {
		client = &http.Client{
			Timeout: opts.Timeout,
			Transport: &http.Transport{
				MaxIdleConns:        opts.Concurrency * 2,
				MaxIdleConnsPerHost: opts.Concurrency * 2,
			},
		}
	}
	h := &Harness{opts: opts, client: client}
	if err := h.discover(ctx); err != nil {
		return nil, err
	}
	for _, name := range sortedMixKeys(opts.Mix) {
		if _, known := defaultMix[name]; !known {
			return nil, fmt.Errorf("loadgen: unknown endpoint %q in mix (have %s)",
				name, strings.Join(sortedMixKeys(defaultMix), ", "))
		}
		w := opts.Mix[name]
		if w <= 0 {
			continue
		}
		if len(h.targets[name]) == 0 {
			return nil, fmt.Errorf("loadgen: no targets discovered for endpoint %q", name)
		}
		h.names = append(h.names, name)
		h.weights = append(h.weights, w)
		h.total += w
	}
	if h.total == 0 {
		return nil, errors.New("loadgen: the endpoint mix has no positive weights")
	}
	return h, nil
}

func sortedMixKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// routeInfo is one operation of the server's OpenAPI document: the method,
// the path template with {param} placeholders, and whether the route is a
// stream (SSE) rather than a bounded request/response.
type routeInfo struct {
	method    string
	path      string
	streaming bool
}

// discoverRoutes fetches /v1/openapi.json and indexes its operations by
// operationId. Discovery derives every URL template from this document, so
// the harness follows the server's published surface instead of hard-coding
// paths that could drift from it.
func (h *Harness) discoverRoutes(ctx context.Context) (map[string]routeInfo, error) {
	var doc struct {
		Paths map[string]map[string]struct {
			OperationID string `json:"operationId"`
			XStreaming  bool   `json:"x-streaming"`
		} `json:"paths"`
	}
	if err := h.getJSON(ctx, "/v1/openapi.json", &doc); err != nil {
		return nil, fmt.Errorf("loadgen: openapi discovery: %w", err)
	}
	routes := make(map[string]routeInfo, len(doc.Paths))
	for p, ops := range doc.Paths {
		for m, op := range ops {
			if op.OperationID == "" {
				continue
			}
			routes[op.OperationID] = routeInfo{
				method: strings.ToUpper(m), path: p, streaming: op.XStreaming,
			}
		}
	}
	if len(routes) == 0 {
		return nil, errors.New("loadgen: the OpenAPI document lists no operations")
	}
	return routes, nil
}

// fillPath substitutes {name} template parameters with concrete values.
func fillPath(tmpl string, vals map[string]string) string {
	for k, v := range vals {
		tmpl = strings.Replace(tmpl, "{"+k+"}", v, 1)
	}
	return tmpl
}

// route resolves one mix endpoint to its OpenAPI operation, refusing to
// target a GET-only load at an operation the document does not describe as
// a plain GET (streams are only exercised through their poll fallback).
func (h *Harness) route(routes map[string]routeInfo, endpoint string) (routeInfo, error) {
	op := mixToOperation[endpoint]
	rt, ok := routes[op]
	if !ok {
		return routeInfo{}, fmt.Errorf("loadgen: the OpenAPI document has no operation %q (endpoint %q)", op, endpoint)
	}
	if rt.method != "GET" {
		return routeInfo{}, fmt.Errorf("loadgen: operation %q is %s, not GET", op, rt.method)
	}
	if rt.streaming && endpoint != "watch_poll" {
		return routeInfo{}, fmt.Errorf("loadgen: operation %q is a stream; not a load target", op)
	}
	return rt, nil
}

// discover maps the server: the route templates from its OpenAPI document,
// then the series shape (years and pairs) plus sampled record and household
// IDs to fill the templates' path parameters.
func (h *Harness) discover(ctx context.Context) error {
	routes, err := h.discoverRoutes(ctx)
	if err != nil {
		return err
	}
	tmpl := make(map[string]routeInfo, len(mixToOperation))
	for endpoint := range mixToOperation {
		rt, err := h.route(routes, endpoint)
		if err != nil {
			return err
		}
		tmpl[endpoint] = rt
	}

	var years struct {
		Years []int `json:"years"`
		Pairs []struct {
			Old int `json:"old"`
			New int `json:"new"`
		} `json:"pairs"`
	}
	if err := h.getJSON(ctx, tmpl["years"].path, &years); err != nil {
		return fmt.Errorf("loadgen: discovery: %w", err)
	}
	if len(years.Pairs) == 0 {
		return errors.New("loadgen: server reports no year pairs")
	}

	h.targets = map[string][]target{
		"years": {{"years", h.opts.BaseURL + tmpl["years"].path}},
		"timelines": {
			{"timelines", h.opts.BaseURL + tmpl["timelines"].path},
			{"timelines", h.opts.BaseURL + tmpl["timelines"].path + "?min_span=2"},
		},
		// The change feed's long-poll fallback: an empty immediate poll is
		// the cheapest "anything new?" a feed reader issues.
		"watch_poll": {{"watch_poll", h.opts.BaseURL + tmpl["watch_poll"].path + "?mode=poll"}},
	}
	for _, p := range years.Pairs {
		vals := map[string]string{
			"old": strconv.Itoa(p.Old), "new": strconv.Itoa(p.New),
		}
		recordsPath := fillPath(tmpl["records"].path, vals)
		records := h.opts.BaseURL + recordsPath
		h.targets["records"] = append(h.targets["records"],
			target{"records", records},
			target{"records", records + "?limit=50"})
		// The second page follows the first page's cursor. Loadgen never
		// ingests, so the token stays valid for the whole run.
		var firstPage struct {
			Page struct {
				NextCursor string `json:"next_cursor"`
			} `json:"page"`
		}
		if err := h.getJSON(ctx, recordsPath+"?limit=50", &firstPage); err != nil {
			return fmt.Errorf("loadgen: discovery: %w", err)
		}
		if c := firstPage.Page.NextCursor; c != "" {
			h.targets["records"] = append(h.targets["records"],
				target{"records", records + "?limit=50&cursor=" + c})
		}
		h.targets["groups"] = append(h.targets["groups"],
			target{"groups", h.opts.BaseURL + fillPath(tmpl["groups"].path, vals)})
		h.targets["patterns"] = append(h.targets["patterns"],
			target{"patterns", h.opts.BaseURL + fillPath(tmpl["patterns"].path, vals)})
	}

	// Sample concrete IDs from the first pair so the drill-down endpoints
	// have live entities to query.
	first := years.Pairs[0]
	firstVals := map[string]string{
		"old": strconv.Itoa(first.Old), "new": strconv.Itoa(first.New),
	}
	var links struct {
		Links []struct {
			Old string `json:"old"`
		} `json:"record_links"`
	}
	if err := h.getJSON(ctx, fmt.Sprintf("%s?limit=%d",
		fillPath(tmpl["records"].path, firstVals), h.opts.SampleIDs), &links); err != nil {
		return fmt.Errorf("loadgen: discovery: %w", err)
	}
	for _, l := range links.Links {
		h.targets["record_lifecycle"] = append(h.targets["record_lifecycle"],
			target{"record_lifecycle", h.opts.BaseURL + fillPath(tmpl["record_lifecycle"].path,
				map[string]string{"year": strconv.Itoa(first.Old), "id": l.Old})})
	}
	var groups struct {
		Links []struct {
			Old string `json:"old"`
		} `json:"group_links"`
	}
	if err := h.getJSON(ctx, fmt.Sprintf("%s?limit=%d",
		fillPath(tmpl["groups"].path, firstVals), h.opts.SampleIDs), &groups); err != nil {
		return fmt.Errorf("loadgen: discovery: %w", err)
	}
	for _, g := range groups.Links {
		h.targets["household_timeline"] = append(h.targets["household_timeline"],
			target{"household_timeline", h.opts.BaseURL + fillPath(tmpl["household_timeline"].path,
				map[string]string{"year": strconv.Itoa(first.Old), "id": g.Old})})
	}
	return nil
}

func (h *Harness) getJSON(ctx context.Context, path string, v any) error {
	req, err := http.NewRequestWithContext(ctx, "GET", h.opts.BaseURL+path, nil)
	if err != nil {
		return err
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %d: %s", path, resp.StatusCode, body)
	}
	return json.Unmarshal(body, v)
}

// Run primes the ETag cache (in conditional mode), then hammers the target
// set with Concurrency workers for Duration and aggregates the results.
func (h *Harness) Run(ctx context.Context) (*Summary, error) {
	if h.opts.Conditional {
		if err := h.prime(ctx); err != nil {
			return nil, err
		}
	}

	runCtx, cancel := context.WithTimeout(ctx, h.opts.Duration)
	defer cancel()
	perWorker := make([]map[string]*endpointStats, h.opts.Concurrency)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < h.opts.Concurrency; i++ {
		stats := make(map[string]*endpointStats)
		perWorker[i] = stats
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(h.opts.Seed + int64(worker)))
			for runCtx.Err() == nil {
				tg := h.pick(rng)
				h.do(runCtx, rng, h.stats(stats, tg.endpoint), tg)
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return h.summarize(perWorker, elapsed), nil
}

// prime fetches every target once, unconditionally and unmeasured, so the
// measured window replays a warmed ETag cache — the "repeat run" a
// revalidating client performs.
func (h *Harness) prime(ctx context.Context) error {
	var all []target
	for _, name := range h.names {
		all = append(all, h.targets[name]...)
	}
	sem := make(chan struct{}, h.opts.Concurrency)
	errc := make(chan error, len(all))
	for _, tg := range all {
		sem <- struct{}{}
		go func(tg target) {
			defer func() { <-sem }()
			req, err := http.NewRequestWithContext(ctx, "GET", tg.url, nil)
			if err != nil {
				errc <- err
				return
			}
			resp, err := h.client.Do(req)
			if err != nil {
				errc <- fmt.Errorf("prime %s: %w", tg.url, err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if et := resp.Header.Get("ETag"); et != "" {
				h.etags.Store(tg.url, et)
			}
			errc <- nil
		}(tg)
	}
	for range all {
		if err := <-errc; err != nil {
			return err
		}
	}
	return nil
}

func (h *Harness) stats(m map[string]*endpointStats, endpoint string) *endpointStats {
	es := m[endpoint]
	if es == nil {
		es = &endpointStats{status: make(map[int]int64)}
		m[endpoint] = es
	}
	return es
}

// pick draws one target: a weighted endpoint, then a uniform URL within it.
func (h *Harness) pick(rng *rand.Rand) target {
	n := rng.Intn(h.total)
	for i, w := range h.weights {
		if n < w {
			urls := h.targets[h.names[i]]
			return urls[rng.Intn(len(urls))]
		}
		n -= w
	}
	panic("unreachable")
}

// maxRetryDelay caps one Retry-After-hinted backoff sleep, so a misbehaving
// server cannot park a worker for the whole run window.
const maxRetryDelay = 2 * time.Second

// do issues one request and records it; a 503 shed response is retried up
// to Options.Retries times, honoring the server's Retry-After hint with a
// capped, jittered sleep. Every attempt (including retried ones) is its own
// entry in the request and status counts — retries are counted, not hidden.
func (h *Harness) do(ctx context.Context, rng *rand.Rand, es *endpointStats, tg target) {
	for attempt := 0; ; attempt++ {
		status, retryAfter := h.doOnce(ctx, es, tg)
		if status != http.StatusServiceUnavailable || attempt >= h.opts.Retries {
			return
		}
		es.retries++
		t := time.NewTimer(retryDelay(retryAfter, attempt, rng))
		select {
		case <-ctx.Done():
			t.Stop()
			return
		case <-t.C:
		}
	}
}

// retryDelay turns a 503's Retry-After hint into the backoff sleep: the
// server's whole-second hint (or 100ms × 2^attempt when the header is
// absent or unparsable) capped at maxRetryDelay, then jittered uniformly
// over (delay/2, delay] so shed workers do not return in lockstep and
// re-shed each other.
func retryDelay(retryAfter string, attempt int, rng *rand.Rand) time.Duration {
	var d time.Duration
	if secs, err := strconv.Atoi(strings.TrimSpace(retryAfter)); err == nil && secs > 0 {
		d = time.Duration(secs) * time.Second
	} else {
		d = (100 * time.Millisecond) << uint(attempt)
	}
	if d > maxRetryDelay {
		d = maxRetryDelay
	}
	half := d / 2
	return half + time.Duration(rng.Int63n(int64(half)+1))
}

// doOnce issues one attempt and records it. Requests cut off by the end of
// the run window are not counted at all — they are an artifact of the
// harness stopping, not of the server. It returns the response status (0
// when no response arrived) and the Retry-After header for do's retry
// decision.
func (h *Harness) doOnce(ctx context.Context, es *endpointStats, tg target) (status int, retryAfter string) {
	req, err := http.NewRequestWithContext(ctx, "GET", tg.url, nil)
	if err != nil {
		es.requests++
		es.transportErrors++
		return 0, ""
	}
	if h.opts.Conditional {
		if et, ok := h.etags.Load(tg.url); ok {
			req.Header.Set("If-None-Match", et.(string))
		}
	}
	start := time.Now()
	resp, err := h.client.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return 0, "" // run window closed mid-flight
		}
		es.requests++
		es.transportErrors++
		return 0, ""
	}
	_, copyErr := io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if copyErr != nil && ctx.Err() != nil {
		return 0, ""
	}
	es.requests++
	if copyErr != nil {
		// A status line arrived but the body died (e.g. the server aborted a
		// broken stream): a transport-level failure from the client's view.
		es.transportErrors++
		return 0, ""
	}
	es.latenciesMs = append(es.latenciesMs, float64(time.Since(start))/float64(time.Millisecond))
	es.status[resp.StatusCode]++
	if resp.StatusCode == http.StatusOK {
		if et := resp.Header.Get("ETag"); et != "" {
			h.etags.Store(tg.url, et)
		}
	}
	return resp.StatusCode, resp.Header.Get("Retry-After")
}

// summarize merges the worker tallies into the run Summary.
func (h *Harness) summarize(perWorker []map[string]*endpointStats, elapsed time.Duration) *Summary {
	s := &Summary{
		BaseURL:         h.opts.BaseURL,
		Concurrency:     h.opts.Concurrency,
		DurationSeconds: elapsed.Seconds(),
		Conditional:     h.opts.Conditional,
		Endpoints:       make(map[string]EndpointSummary),
	}
	merged := make(map[string]*endpointStats)
	for _, m := range perWorker {
		for name, es := range m {
			t := h.stats(merged, name)
			t.requests += es.requests
			t.transportErrors += es.transportErrors
			t.retries += es.retries
			t.latenciesMs = append(t.latenciesMs, es.latenciesMs...)
			for code, n := range es.status {
				t.status[code] += n
			}
		}
	}
	var allLat []float64
	var pairLinkRequests, pairLink304 int64
	for name, es := range merged {
		sort.Float64s(es.latenciesMs)
		eps := EndpointSummary{
			Requests:        es.requests,
			TransportErrors: es.transportErrors,
			Retries:         es.retries,
			Status:          make(map[string]int64, len(es.status)),
			NotModified:     es.status[http.StatusNotModified],
			P50Ms:           percentile(es.latenciesMs, 0.50),
			P95Ms:           percentile(es.latenciesMs, 0.95),
			P99Ms:           percentile(es.latenciesMs, 0.99),
		}
		for code, n := range es.status {
			eps.Status[fmt.Sprintf("%d", code)] = n
			if code >= 500 {
				s.ServerErrors += n
			}
			if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
				s.Shed += n
			}
		}
		s.Endpoints[name] = eps
		s.Requests += es.requests
		s.TransportErrors += es.transportErrors
		s.Retries += es.retries
		s.NotModified += eps.NotModified
		if pairLinkEndpoints[name] {
			pairLinkRequests += es.requests
			pairLink304 += eps.NotModified
		}
		allLat = append(allLat, es.latenciesMs...)
	}
	sort.Float64s(allLat)
	s.P50Ms = percentile(allLat, 0.50)
	s.P95Ms = percentile(allLat, 0.95)
	s.P99Ms = percentile(allLat, 0.99)
	if len(allLat) > 0 {
		s.MaxMs = allLat[len(allLat)-1]
	}
	if elapsed > 0 {
		s.QPS = float64(s.Requests) / elapsed.Seconds()
	}
	if pairLinkRequests > 0 {
		s.PairLinkNotModifiedRatio = float64(pairLink304) / float64(pairLinkRequests)
	}
	return s
}

// percentile reads the q-quantile from sorted samples (nearest-rank).
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
