// Package server turns the linkage pipeline into a long-lived query
// service: it holds one census series, computes each successive year-pair's
// record and group linkage at most once (lazily on first demand, behind a
// single-flight cache, or eagerly at startup) and serves the results — with
// full per-link provenance — plus the household evolution patterns,
// timelines and per-record lifecycles derived from them over JSON HTTP
// endpoints. The series is not frozen: POST /v1/census ingests a newly
// arrived census year — linking only the new pair and extending the
// evolution graph in place — and GET /v1/evolution/watch streams the
// resulting household transitions to subscribers (SSE with a long-poll
// fallback), so clients follow the series instead of re-querying it.
// Observability is the same internal/obs collector the CLIs use, exported
// in Prometheus text format on /metrics alongside /healthz and
// /debug/pprof; concurrency of the expensive pair computations is bounded
// by a semaphore and request-scoped deadlines flow into the pipeline's
// cancellation checkpoints.
package server

import (
	"context"
	"fmt"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"
	"time"

	"censuslink/internal/census"
	"censuslink/internal/hgraph"
	"censuslink/internal/linkage"
	"censuslink/internal/obs"
)

// linkFunc is the pipeline entry point; tests substitute it to observe or
// stall computations.
type linkFunc func(ctx context.Context, old, new *census.Dataset, cfg linkage.Config) (*linkage.Result, error)

// Config configures a linkage query service over one census series.
type Config struct {
	// Series is the loaded census series; it must hold at least two
	// datasets. The datasets themselves are immutable, but the series grows
	// when new census years are ingested through POST /v1/census — readers
	// always see a consistent snapshot via an atomic swap.
	Series *census.Series
	// Linkage is the pipeline configuration applied to every year pair. Its
	// Obs field is overridden by the server's own collector.
	Linkage linkage.Config
	// MaxConcurrent bounds how many year-pair linkage computations may run
	// at once (each one already parallelizes internally via
	// Linkage.Workers); <= 0 means 2.
	MaxConcurrent int
	// ComputeTimeout caps one pair computation; 0 means no cap. A request
	// that triggers the computation can still abandon it earlier through
	// its own deadline — when the last waiter gives up, the pipeline run is
	// cancelled.
	ComputeTimeout time.Duration
	// Stats receives pipeline counters and stage timings; a fresh collector
	// is created when nil. The same collector feeds /metrics.
	Stats *obs.Stats
	// MaxInFlight bounds how many API requests may be in flight at once;
	// excess requests are shed immediately with a 503 `overloaded` envelope
	// and a Retry-After hint instead of queueing into collapse. <= 0 means
	// no cap. /healthz and /metrics are exempt, so the server stays
	// observable while shedding.
	MaxInFlight int
	// RateLimit caps each client's sustained request rate (requests per
	// second, keyed by remote IP) with a token bucket of RateBurst
	// capacity; a client over budget gets 429 `rate_limited` with
	// Retry-After. <= 0 disables per-client limiting.
	RateLimit float64
	// RateBurst is the token-bucket capacity of RateLimit; values < 1 are
	// clamped to 1.
	RateBurst int
	// Store, when non-nil, persists pair results across restarts
	// (internal/store implements it). The cache warm-starts from it at
	// construction — every pair whose (config fingerprint, dataset hashes)
	// address has a trusted snapshot is served without running the pipeline —
	// and each freshly computed pair is written back. Hits, misses and
	// rejected snapshots appear on /metrics as the store_hits, store_misses
	// and store_corrupt counters.
	//
	// The store is an accelerator, never a dependency: when it misbehaves
	// (storeDegradedAfter consecutive I/O failures) the server flips into
	// degraded mode — every query keeps being answered from cache and
	// pipeline, write-throughs pause, /healthz reports "degraded" and the
	// censuslink_store_degraded gauge reads 1 — and recovers automatically
	// once the store answers again, flushing results computed meanwhile.
	Store linkage.ResultStore
	// StoreRefresh, when > 0 and Store is set, runs a background loop every
	// StoreRefresh interval that adopts snapshots other replicas of this
	// series have written (so N stateless linkservers sharing one store
	// directory serve each other's work without recomputing) and doubles as
	// degraded mode's recovery probe, backing off while the store stays
	// down. The loop stops when Abort is called.
	StoreRefresh time.Duration
	// MaxIngestBytes caps the request body of POST /v1/census; larger
	// uploads are rejected with 413 `too_large`. <= 0 means 64 MiB.
	MaxIngestBytes int64
	// WatchBuffer is how many change-feed events the watch hub retains for
	// Last-Event-ID replay; a subscriber resuming from further back gets the
	// retained suffix. <= 0 means 1024.
	WatchBuffer int
	// WatchHeartbeat is the SSE keep-alive comment interval; 0 means 15s.
	WatchHeartbeat time.Duration

	// linkFn substitutes the pipeline in tests; nil means
	// linkage.LinkContext.
	linkFn linkFunc
}

// seriesState is one immutable snapshot of the served series. Ingest builds
// a new state and swaps the pointer; requests load it once and stay
// internally consistent for their whole lifetime.
type seriesState struct {
	series *census.Series
	// gen counts ingests (the seed series is gen 0); it stamps watch events
	// and the ingest response so operators can correlate them.
	gen uint64
	// seriesHash fingerprints the member datasets. Every ETag hashes it in,
	// so ingesting a year invalidates all cached validators at once — a
	// conditional GET after an ingest refetches a fresh body even on
	// endpoints whose underlying pair did not change (clients see one
	// consistent series version, not a mix).
	seriesHash string
}

func newSeriesState(series *census.Series, gen uint64) *seriesState {
	parts := make([]string, 0, len(series.Datasets))
	for _, d := range series.Datasets {
		parts = append(parts, d.ContentHash())
	}
	return &seriesState{series: series, gen: gen, seriesHash: makeETag(parts...)}
}

// Server is the HTTP query service. Create with New; it is safe for
// concurrent use.
type Server struct {
	state          atomic.Pointer[seriesState]
	linkCfg        linkage.Config
	stats          *obs.Stats
	linkFn         linkFunc
	computeTimeout time.Duration

	// store persists pair results (nil: no persistence); cfgHash is the
	// linkage configuration fingerprint all snapshot addresses share;
	// health is the store's degraded-mode state machine.
	store   linkage.ResultStore
	cfgHash string
	health  *storeHealth

	// sem bounds concurrent pair computations.
	sem chan struct{}

	// maxInFlight caps concurrently served API requests (apiInflight is
	// the live count); limiter is the per-client token bucket (nil: no
	// limiting).
	maxInFlight int
	apiInflight atomic.Int64
	limiter     *tokenBuckets

	// ingestMu serializes POST /v1/census: ingests are rare and ordered —
	// two concurrent uploads of the same year must resolve to one 201 and
	// one 409, never two linked pairs.
	ingestMu       sync.Mutex
	maxIngestBytes int64

	// watch fans change-feed events out to SSE and long-poll subscribers.
	watch          *watchHub
	watchHeartbeat time.Duration

	// baseCtx parents every computation; abort cancels them all on
	// shutdown.
	baseCtx context.Context
	abort   context.CancelFunc

	cache *pairCache

	mux       *http.ServeMux
	handler   http.Handler
	apiRoutes []route
	started   time.Time
	inflight  atomic.Int64
	requests  *requestCounters
}

// New validates the configuration and builds the service. No computation
// starts until the first query (or Precompute).
func New(cfg Config) (*Server, error) {
	if cfg.Series == nil || len(cfg.Series.Datasets) < 2 {
		return nil, fmt.Errorf("server: need a series of at least two censuses")
	}
	if err := cfg.Linkage.Validate(); err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	stats := cfg.Stats
	if stats == nil {
		stats = obs.NewStats(nil)
	}
	maxc := cfg.MaxConcurrent
	if maxc <= 0 {
		maxc = 2
	}
	fn := cfg.linkFn
	if fn == nil {
		fn = linkage.LinkContext
	}
	maxIngest := cfg.MaxIngestBytes
	if maxIngest <= 0 {
		maxIngest = 64 << 20
	}
	heartbeat := cfg.WatchHeartbeat
	if heartbeat <= 0 {
		heartbeat = 15 * time.Second
	}
	baseCtx, abort := context.WithCancel(context.Background())
	s := &Server{
		linkCfg:        cfg.Linkage,
		stats:          stats,
		linkFn:         fn,
		computeTimeout: cfg.ComputeTimeout,
		sem:            make(chan struct{}, maxc),
		maxInFlight:    cfg.MaxInFlight,
		limiter:        newTokenBuckets(cfg.RateLimit, cfg.RateBurst),
		maxIngestBytes: maxIngest,
		watch:          newWatchHub(cfg.WatchBuffer),
		watchHeartbeat: heartbeat,
		baseCtx:        baseCtx,
		abort:          abort,
		started:        time.Now(),
		requests:       newRequestCounters(),
		// The configuration fingerprint is half of every response's content
		// address: the snapshot store keys by it, and the ETags of the
		// immutable query endpoints hash it in.
		cfgHash: cfg.Linkage.Fingerprint(),
	}
	// One enrichment cache across all pairs and ingests: each census year's
	// household graphs are built once for the server's lifetime.
	if s.linkCfg.GraphCache == nil {
		s.linkCfg.GraphCache = hgraph.NewCache()
	}
	s.state.Store(newSeriesState(cfg.Series, 0))
	if cfg.Store != nil {
		s.store = cfg.Store
	}
	s.health = newStoreHealth(stats)
	s.cache = newPairCache(s)
	s.cache.warmStart()
	if s.store != nil && cfg.StoreRefresh > 0 {
		go s.cache.refreshLoop(s.baseCtx, cfg.StoreRefresh)
	}
	s.mux = http.NewServeMux()
	s.routes()
	s.handler = s.mux
	return s, nil
}

// cur returns the current series snapshot. Handlers load it once per
// request; the cache loads it per operation (earlier pairs are shared
// between snapshots, so pair index i means the same datasets in every
// snapshot that contains it).
func (s *Server) cur() *seriesState { return s.state.Load() }

// route describes one /v1 endpoint: how it is mounted, how it is counted,
// and how it renders into the machine-readable route table
// (GET /v1/openapi.json) that cmd/loadgen discovers endpoints from.
type route struct {
	method  string // HTTP method
	path    string // /v1-relative pattern, e.g. "/links/{old}/{new}/records"
	name    string // operation id; also the metrics endpoint label
	summary string
	params  []paramDoc
	// paginated endpoints carry the uniform page window (limit/cursor)
	// and its parameters in the route table.
	paginated bool
	// streaming marks the change feed: loadgen's discovery skips it and
	// OpenAPI flags it x-streaming.
	streaming bool
	h         http.HandlerFunc
}

type paramDoc struct {
	name     string // parameter name
	in       string // "path" or "query"
	typ      string // "integer" or "string"
	desc     string
	required bool
}

// pageParamDocs are the shared pagination parameters of every paginated
// list endpoint. A cursor is the only way to a later page: the series can
// grow between pages, and a cursor detects the change (410) instead of
// silently skipping items.
var pageParamDocs = []paramDoc{
	{name: "limit", in: "query", typ: "integer", desc: "page size (1..1000, default 100)"},
	{name: "cursor", in: "query", typ: "string", desc: "opaque resume token from the previous page's page.next_cursor; absent or empty means the first page"},
}

// routes registers every endpoint. Query endpoints live under /v1/. Query
// handlers are wrapped by api — load shedding and per-client rate limits
// ahead of the request counters, latency histograms and the in-flight
// gauge on /metrics; /healthz and /metrics are infrastructure, not API:
// they are counted but never shed, so the server stays observable under
// overload.
func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", s.counted("healthz", s.handleHealthz))
	s.mux.HandleFunc("GET /metrics", s.counted("metrics", s.handleMetrics))

	pairParams := []paramDoc{
		{name: "old", in: "path", typ: "integer", desc: "older census year of a successive pair", required: true},
		{name: "new", in: "path", typ: "integer", desc: "newer census year of a successive pair", required: true},
	}
	s.apiRoutes = []route{
		{method: "GET", path: "/years", name: "years",
			summary: "census years and successive pairs of the served series",
			h:       s.handleYears},
		{method: "GET", path: "/links/{old}/{new}/records", name: "record_links", paginated: true,
			summary: "1:1 record links of one census pair with per-link provenance",
			params: append([]paramDoc{
				{name: "record", in: "query", typ: "string", desc: "restrict to links touching this record id"},
				{name: "source", in: "query", typ: "string", desc: "restrict to one stage: subgraph or remainder"},
			}, pairParams...),
			h: s.handleRecordLinks},
		{method: "GET", path: "/links/{old}/{new}/groups", name: "group_links", paginated: true,
			summary: "household links of one census pair",
			params:  pairParams,
			h:       s.handleGroupLinks},
		{method: "GET", path: "/evolution/{old}/{new}/patterns", name: "patterns", paginated: true,
			summary: "evolution-pattern counts and typed events of one census pair",
			params:  pairParams,
			h:       s.handlePatterns},
		{method: "GET", path: "/households/{year}/{id}/timeline", name: "household_timeline",
			summary: "forward evolution of one household through the series",
			params: []paramDoc{
				{name: "year", in: "path", typ: "integer", desc: "census year", required: true},
				{name: "id", in: "path", typ: "string", desc: "household id", required: true},
			},
			h: s.handleHouseholdTimeline},
		{method: "GET", path: "/records/{year}/{id}/lifecycle", name: "record_lifecycle",
			summary: "reconstructed person history through one census record",
			params: []paramDoc{
				{name: "year", in: "path", typ: "integer", desc: "census year", required: true},
				{name: "id", in: "path", typ: "string", desc: "record id", required: true},
			},
			h: s.handleRecordLifecycle},
		{method: "GET", path: "/timelines", name: "timelines", paginated: true,
			summary: "per-person timelines of the whole series, longest first",
			params: []paramDoc{
				{name: "min_span", in: "query", typ: "integer", desc: "minimum censuses traced through (default 2)"},
			},
			h: s.handleTimelines},
		{method: "POST", path: "/census", name: "census_ingest",
			summary: "ingest a newly arrived census year (CSV upload with ?year=, or a JSON {path, year} reference); links the new pair, extends the evolution graph and publishes change-feed events",
			params: []paramDoc{
				{name: "year", in: "query", typ: "integer", desc: "census year of the uploaded CSV (required for CSV bodies)"},
			},
			h: s.handleIngest},
		{method: "GET", path: "/evolution/watch", name: "evolution_watch", streaming: true,
			summary: "change feed of household evolution events: SSE by default (Last-Event-ID resume), JSON long-poll with ?mode=poll",
			params: []paramDoc{
				{name: "mode", in: "query", typ: "string", desc: "poll for the long-poll fallback; default SSE"},
				{name: "after", in: "query", typ: "integer", desc: "long-poll: return events with id greater than this"},
				{name: "wait", in: "query", typ: "string", desc: "long-poll: how long to wait for the first event (duration, max 55s)"},
				{name: "last_event_id", in: "query", typ: "integer", desc: "SSE resume point when the Last-Event-ID header is inconvenient"},
			},
			h: s.handleWatch},
		{method: "GET", path: "/openapi.json", name: "openapi",
			summary: "machine-readable route table of this surface (OpenAPI 3.0)",
			h:       s.handleOpenAPI},
	}
	for _, rt := range s.apiRoutes {
		s.mux.HandleFunc(rt.method+" /v1"+rt.path, s.api(rt.name, rt.h))
	}

	s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
}

// Handler returns the service's HTTP handler, for mounting on an
// http.Server or httptest.
func (s *Server) Handler() http.Handler { return s.handler }

// Stats returns the pipeline collector backing /metrics, so callers can
// flush a final JSON report on shutdown.
func (s *Server) Stats() *obs.Stats { return s.stats }

// Precompute runs the linkage of every year pair (bounded by
// MaxConcurrent) and assembles the evolution bundle, so the first queries
// hit a warm cache. It shares the single-flight slots with concurrent
// requests and respects ctx.
func (s *Server) Precompute(ctx context.Context) error {
	if _, err := s.cache.allResults(ctx, s.cur()); err != nil {
		return err
	}
	_, err := s.cache.bundle(ctx)
	return err
}

// Abort cancels every in-flight and future computation: queries that are
// waiting fail promptly, watch subscribers are disconnected, and new
// queries are refused by handlers observing the closed base context. Call
// after draining HTTP requests on shutdown.
func (s *Server) Abort() { s.abort() }

// shuttingDown reports whether Abort has been called.
func (s *Server) shuttingDown() bool {
	select {
	case <-s.baseCtx.Done():
		return true
	default:
		return false
	}
}
